//! Lock-step process hosting.
//!
//! The NASA workloads are real programs (a PPM solver, a wavelet transform,
//! a Barnes–Hut tree code). We want to write them as ordinary Rust, yet the
//! simulation must control when they run and what every syscall costs. The
//! classic way to square that is co-routine style execution, which Rust
//! spells `async`:
//!
//! * A process body is a future. [`ProcessHost`] holds it and polls it on
//!   the engine's own thread with a no-op waker; the body runs until it
//!   suspends in a [`ProcCtx`] call, which first posts a message to the
//!   process's mailbox. The host returns that message to the engine, and
//!   the next poll resumes the body where it stopped. There is one thread
//!   of control: the engine owns every transfer, no node ever blocks, and
//!   the simulation is deterministic.
//! * The process communicates in three verbs: **compute** (burn virtual CPU
//!   time), **request** (a syscall routed to the simulated kernel), and
//!   **exit**. Memory references are batched as page *touches* piggybacked on
//!   the next verb, which keeps suspensions rare (thousands of page touches
//!   cost one) while still letting the VM subsystem fault pages on the exact
//!   access order the algorithm produced.
//! * A body that panics is reported as exit code 101, as a real program
//!   dying with SIGABRT would be. Dropping a host drops its body, whatever
//!   it was waiting for.
//!
//! The request/response types are generic: this crate knows nothing about
//! disks or files. `essio-kernel` instantiates `Req = Syscall`,
//! `Resp = SysResult`.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use crate::time::SimTime;

/// A virtual page number in a process address space.
pub type Vpn = u64;

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

impl<Req> ProcMsg<Req> {
    /// Move the page touches out, leaving the verb they ride on.
    pub fn take_touches(&mut self) -> Vec<Vpn> {
        match self {
            ProcMsg::Compute { touches, .. }
            | ProcMsg::Request { touches, .. }
            | ProcMsg::Exit { touches, .. } => std::mem::take(touches),
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

/// Host time spent inside process bodies on one thread: how many times a
/// body was polled and the wall seconds those polls took. Bodies run on the
/// thread that drives their hosts, so this is the app-numerics share of
/// that thread's time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BodyLedger {
    /// Body polls: one per resume.
    pub polls: u64,
    /// Host wall seconds spent inside those polls.
    pub body_secs: f64,
}

thread_local! {
    static LEDGER: Cell<BodyLedger> = const {
        Cell::new(BodyLedger {
            polls: 0,
            body_secs: 0.0,
        })
    };
}

impl BodyLedger {
    /// Totals for every body polled on the calling thread so far.
    pub fn current() -> Self {
        LEDGER.with(Cell::get)
    }

    /// What accumulated between an `earlier` reading and this one.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            polls: self.polls - earlier.polls,
            body_secs: self.body_secs - earlier.body_secs,
        }
    }
}

/// The state a body's context shares with its host.
struct Mailbox<Req, Resp> {
    cfg: ProcConfig,
    /// Virtual time of the last resume.
    now: SimTime,
    pending_compute: u64,
    touches: Vec<Vpn>,
    /// The message the body posted before it last suspended.
    out: Option<ProcMsg<Req>>,
    /// The response delivered with the last resume.
    reply: Option<Resp>,
}

impl<Req, Resp> Mailbox<Req, Resp> {
    /// Record `pages` in order, billing `micros_per_page` after each, until
    /// a flush threshold fires (`true`: flush, then call again with the
    /// rest) or the pages run out. `owed` carries a page's compute across a
    /// touch-triggered flush, so it is billed after the flush as it would
    /// have been after a single-page touch.
    fn record(
        &mut self,
        pages: &mut impl Iterator<Item = Vpn>,
        micros_per_page: u64,
        owed: &mut bool,
    ) -> bool {
        loop {
            if std::mem::take(owed) {
                self.pending_compute += micros_per_page;
                if self.pending_compute >= self.cfg.compute_flush_us {
                    return true;
                }
            }
            let Some(vpn) = pages.next() else {
                return false;
            };
            *owed = micros_per_page > 0;
            // Consecutive duplicate touches collapse: a loop walking one
            // page does not flood the VM.
            if self.touches.last() != Some(&vpn) {
                self.touches.push(vpn);
                if self.touches.len() >= self.cfg.touch_flush {
                    return true;
                }
            }
        }
    }

    /// Everything accumulated since the last yield, as a `Compute`
    /// message; `None` when there is nothing to bill.
    fn take_compute(&mut self) -> Option<ProcMsg<Req>> {
        let micros = std::mem::take(&mut self.pending_compute);
        let touches = std::mem::take(&mut self.touches);
        (micros > 0 || !touches.is_empty()).then_some(ProcMsg::Compute { micros, touches })
    }
}

/// The process side of the rendezvous: an owned handle to the process's
/// mailbox, passed to the workload body.
pub struct ProcCtx<Req, Resp> {
    mb: Rc<RefCell<Mailbox<Req, Resp>>>,
}

impl<Req, Resp> ProcCtx<Req, Resp> {
    /// Current virtual time as of the last rendezvous, plus locally
    /// accumulated compute. Approximate between yields by construction.
    #[inline]
    pub fn now(&self) -> SimTime {
        let mb = self.mb.borrow();
        mb.now + mb.pending_compute
    }

    /// Consume `micros` of virtual CPU time. Cheap: accumulates locally and
    /// only suspends when the configured flush threshold is crossed.
    pub async fn compute(&mut self, micros: u64) {
        let due = {
            let mut mb = self.mb.borrow_mut();
            mb.pending_compute += micros;
            mb.pending_compute >= mb.cfg.compute_flush_us
        };
        if due {
            self.flush().await;
        }
    }

    /// Record a reference to virtual page `vpn`. Consecutive duplicate
    /// touches are collapsed (a loop walking one page does not flood the VM).
    pub async fn touch(&mut self, vpn: Vpn) {
        self.touch_pages(std::iter::once(vpn), 0).await;
    }

    /// Touch every page in `[base_vpn, base_vpn + npages)`.
    pub async fn touch_range(&mut self, base_vpn: Vpn, npages: u64) {
        self.touch_pages(base_vpn..base_vpn + npages, 0).await;
    }

    /// Touch `pages` in order, billing `micros_per_page` of compute after
    /// each — the same messages as a [`ProcCtx::touch`] (and, when
    /// `micros_per_page > 0`, a [`ProcCtx::compute`]) per page, but the
    /// pages are batched synchronously and the body suspends only where a
    /// flush threshold fires.
    pub async fn touch_pages(
        &mut self,
        pages: impl IntoIterator<Item = Vpn>,
        micros_per_page: u64,
    ) {
        let mut pages = pages.into_iter();
        let mut owed = false;
        loop {
            let due = self
                .mb
                .borrow_mut()
                .record(&mut pages, micros_per_page, &mut owed);
            if !due {
                return;
            }
            self.flush().await;
        }
    }

    /// Issue a syscall and suspend until the simulated kernel answers.
    /// Any accumulated compute/touches are flushed as part of the request,
    /// so the kernel observes them *before* the call, in program order.
    pub async fn request(&mut self, call: Req) -> Resp {
        let billed = {
            let mut mb = self.mb.borrow_mut();
            // Bill outstanding compute before the syscall so its timestamp
            // lands after the work that produced it.
            if mb.pending_compute > 0 {
                mb.take_compute()
            } else {
                None
            }
        };
        if let Some(msg) = billed {
            self.post(msg).await;
        }
        let touches = std::mem::take(&mut self.mb.borrow_mut().touches);
        self.post(ProcMsg::Request { call, touches }).await;
        self.mb
            .borrow_mut()
            .reply
            .take()
            .expect("kernel must answer a Request with a response")
    }

    async fn flush(&mut self) {
        let msg = self.mb.borrow_mut().take_compute();
        if let Some(msg) = msg {
            self.post(msg).await;
        }
    }

    /// Post `msg` and suspend until the engine resumes the process.
    async fn post(&mut self, msg: ProcMsg<Req>) {
        self.mb.borrow_mut().out = Some(msg);
        let mut posted = false;
        poll_fn(|_| {
            if std::mem::replace(&mut posted, true) {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await;
    }
}

/// Engine-side handle to a hosted process body.
pub struct ProcessHost<Req, Resp> {
    name: String,
    mb: Rc<RefCell<Mailbox<Req, Resp>>>,
    /// The body, until it returns or panics.
    body: Option<Pin<Box<dyn Future<Output = i32>>>>,
    /// The exit held back while the trailing compute is delivered.
    exit: Option<ProcMsg<Req>>,
    finished: bool,
}

impl<Req: 'static, Resp: 'static> ProcessHost<Req, Resp> {
    /// Host `body` as a process. Nothing of it runs before the first
    /// [`ProcessHost::resume`].
    pub fn spawn<F, Fut>(name: impl Into<String>, cfg: ProcConfig, body: F) -> Self
    where
        F: FnOnce(ProcCtx<Req, Resp>) -> Fut + 'static,
        Fut: Future<Output = i32> + 'static,
    {
        let mb = Rc::new(RefCell::new(Mailbox {
            cfg,
            now: 0,
            pending_compute: 0,
            touches: Vec::with_capacity(cfg.touch_flush),
            out: None,
            reply: None,
        }));
        let ctx = ProcCtx { mb: Rc::clone(&mb) };
        Self {
            name: name.into(),
            mb,
            body: Some(Box::pin(async move { body(ctx).await })),
            exit: None,
            finished: false,
        }
    }
}

impl<Req, Resp> ProcessHost<Req, Resp> {
    /// Process name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the process has delivered its `Exit` message.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Run the body until its next yield. The first resume starts it;
    /// `resp` answers a [`ProcCtx::request`] and is `None` to start the
    /// body or continue after a `Compute` yield.
    pub fn resume(&mut self, now: SimTime, resp: Option<Resp>) -> ProcMsg<Req> {
        assert!(!self.finished, "resuming a finished process: {}", self.name);
        {
            let mut mb = self.mb.borrow_mut();
            mb.now = now;
            mb.reply = resp;
        }
        if let Some(exit) = self.exit.take() {
            self.finished = true;
            return exit;
        }
        let body = self
            .body
            .as_mut()
            .expect("an unfinished process has a body");
        let started = Instant::now();
        let polled = catch_unwind(AssertUnwindSafe(|| {
            body.as_mut().poll(&mut Context::from_waker(Waker::noop()))
        }));
        let secs = started.elapsed().as_secs_f64();
        LEDGER.with(|l| {
            let mut tally = l.get();
            tally.polls += 1;
            tally.body_secs += secs;
            l.set(tally);
        });
        let (code, touches) = match polled {
            Ok(Poll::Pending) => {
                return self
                    .mb
                    .borrow_mut()
                    .out
                    .take()
                    .expect("a process body suspends only in a ProcCtx call");
            }
            Ok(Poll::Ready(code)) => (code, std::mem::take(&mut self.mb.borrow_mut().touches)),
            // Report a crashed process, as a real program dying with
            // SIGABRT would be; its unflushed touches die with it.
            Err(_) => (101, Vec::new()),
        };
        self.body = None;
        let exit = ProcMsg::Exit { code, touches };
        // Flush any trailing compute so totals balance, then exit.
        let micros = std::mem::take(&mut self.mb.borrow_mut().pending_compute);
        if micros > 0 {
            self.exit = Some(exit);
            return ProcMsg::Compute {
                micros,
                touches: Vec::new(),
            };
        }
        self.finished = true;
        exit
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
            |mut ctx| async move {
                ctx.compute(250).await; // crosses the 100 µs threshold twice
                7
            },
        );
        let mut msgs = Vec::new();
        let mut msg = host.resume(0, None);
        loop {
            match msg {
                ProcMsg::Compute { micros, .. } => {
                    msgs.push(micros);
                    msg = host.resume(0, None);
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
        let mut host = Host::spawn("t", ProcConfig::default(), |mut ctx| async move {
            let a = ctx.request(10).await;
            let b = ctx.request(a).await;
            (a + b) as i32
        });
        let msg = host.resume(0, None);
        let ProcMsg::Request { call, .. } = msg else {
            panic!("expected request, got {msg:?}")
        };
        assert_eq!(call, 10);
        let msg = host.resume(5, Some(100));
        let ProcMsg::Request { call, .. } = msg else {
            panic!("expected request")
        };
        assert_eq!(call, 100);
        let msg = host.resume(9, Some(1));
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
            |mut ctx| async move {
                ctx.compute(42).await;
                ctx.request(1).await;
                0
            },
        );
        let msg = host.resume(0, None);
        let ProcMsg::Compute { micros, .. } = msg else {
            panic!("compute should flush first, got {msg:?}")
        };
        assert_eq!(micros, 42);
        let msg = host.resume(42, None);
        assert!(matches!(msg, ProcMsg::Request { call: 1, .. }));
        let msg = host.resume(50, Some(0));
        assert!(matches!(msg, ProcMsg::Exit { code: 0, .. }));
    }

    #[test]
    fn touches_are_batched_and_dedup_consecutive() {
        let mut host = Host::spawn("t", ProcConfig::default(), |mut ctx| async move {
            ctx.touch(1).await;
            ctx.touch(1).await; // consecutive duplicate collapses
            ctx.touch(2).await;
            ctx.touch(1).await; // non-consecutive repeat is kept
            ctx.request(0).await;
            0
        });
        let msg = host.resume(0, None);
        let ProcMsg::Request { touches, .. } = msg else {
            panic!("expected request")
        };
        assert_eq!(touches, vec![1, 2, 1]);
        host.resume(0, Some(0));
    }

    #[test]
    fn touch_flush_threshold_forces_yield() {
        let mut host = Host::spawn(
            "t",
            ProcConfig {
                compute_flush_us: u64::MAX,
                touch_flush: 8,
            },
            |mut ctx| async move {
                for i in 0..20 {
                    ctx.touch(i).await;
                }
                0
            },
        );
        let msg = host.resume(0, None);
        let ProcMsg::Compute { touches, .. } = msg else {
            panic!("expected flush, got {msg:?}")
        };
        assert_eq!(touches.len(), 8);
        let msg = host.resume(0, None);
        let ProcMsg::Compute { touches, .. } = msg else {
            panic!()
        };
        assert_eq!(touches.len(), 8);
        let msg = host.resume(0, None);
        let ProcMsg::Exit { touches, .. } = msg else {
            panic!("expected exit with tail touches, got {msg:?}")
        };
        assert_eq!(touches.len(), 4);
    }

    #[test]
    fn now_advances_with_resumes() {
        let mut host = Host::spawn("t", ProcConfig::default(), |mut ctx| async move {
            assert_eq!(ctx.now(), 1000);
            ctx.request(0).await;
            assert_eq!(ctx.now(), 2500);
            0
        });
        let msg = host.resume(1000, None);
        assert!(matches!(msg, ProcMsg::Request { .. }));
        let msg = host.resume(2500, Some(0));
        assert!(matches!(msg, ProcMsg::Exit { code: 0, .. }));
    }

    #[test]
    fn panicking_body_reports_exit_code_101() {
        let mut host = Host::spawn("t", ProcConfig::default(), |_ctx| async move {
            panic!("app crashed")
        });
        let msg = host.resume(0, None);
        let ProcMsg::Exit { code, .. } = msg else {
            panic!("expected exit")
        };
        assert_eq!(code, 101);
    }

    #[test]
    fn panic_mid_run_still_bills_its_compute() {
        let mut host = Host::spawn("t", ProcConfig::default(), |mut ctx| async move {
            ctx.request(1).await;
            ctx.touch(9).await;
            ctx.compute(30).await;
            panic!("app crashed")
        });
        assert!(matches!(
            host.resume(0, None),
            ProcMsg::Request { call: 1, .. }
        ));
        let msg = host.resume(1, Some(0));
        assert!(
            matches!(msg, ProcMsg::Compute { micros: 30, ref touches } if touches.is_empty()),
            "{msg:?}"
        );
        let msg = host.resume(31, None);
        assert!(
            matches!(msg, ProcMsg::Exit { code: 101, ref touches } if touches.is_empty()),
            "{msg:?}"
        );
        assert!(host.finished());
    }

    #[test]
    fn dropping_host_mid_request_does_not_hang() {
        let mut host = Host::spawn("t", ProcConfig::default(), |mut ctx| async move {
            ctx.request(1).await;
            0
        });
        let _ = host.resume(0, None);
        drop(host); // must return at once, not deadlock
    }

    #[test]
    fn dropping_host_before_start_or_mid_compute_does_not_hang() {
        drop(Host::spawn("t", ProcConfig::default(), |_ctx| async { 0 }));
        for _ in 0..200 {
            // A body that never stops computing, dropped right after a
            // yield.
            let mut host = Host::spawn(
                "t",
                ProcConfig {
                    compute_flush_us: 1,
                    touch_flush: 64,
                },
                |mut ctx| async move {
                    loop {
                        ctx.compute(1).await;
                    }
                },
            );
            assert!(matches!(host.resume(0, None), ProcMsg::Compute { .. }));
            assert!(matches!(host.resume(1, None), ProcMsg::Compute { .. }));
            drop(host);
        }
    }

    /// Sets its flag when dropped: observes a body being dropped.
    struct DropGuard(Rc<Cell<bool>>);

    impl Drop for DropGuard {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    #[test]
    fn dropping_a_host_drops_its_suspended_body() {
        let dropped = Rc::new(Cell::new(false));
        let flag = Rc::clone(&dropped);
        let mut host = Host::spawn("t", ProcConfig::default(), |mut ctx| async move {
            let _guard = DropGuard(flag);
            ctx.request(1).await;
            unreachable!("the host is dropped mid-request");
        });
        assert!(matches!(
            host.resume(0, None),
            ProcMsg::Request { call: 1, .. }
        ));
        assert!(!dropped.get());
        drop(host);
        assert!(dropped.get(), "the body's locals were not dropped");
    }

    #[test]
    fn the_body_runs_only_once_started() {
        let ran = Rc::new(Cell::new(false));
        let flag = Rc::clone(&ran);
        let mut host = Host::spawn("t", ProcConfig::default(), move |_ctx| {
            flag.set(true);
            async { 3 }
        });
        assert!(!ran.get(), "spawn ran the body");
        assert!(matches!(
            host.resume(0, None),
            ProcMsg::Exit { code: 3, .. }
        ));
        assert!(ran.get());
    }

    #[test]
    fn every_poll_is_counted_in_the_ledger() {
        let before = BodyLedger::current();
        let mut host = Host::spawn("t", ProcConfig::default(), |mut ctx| async move {
            ctx.request(1).await;
            ctx.request(2).await;
            0
        });
        host.resume(0, None);
        host.resume(1, Some(0));
        host.resume(2, Some(0));
        let spent = BodyLedger::current().since(before);
        assert_eq!(spent.polls, 3);
        assert!(spent.body_secs >= 0.0);
    }
}
