//! Failure-path integration: disk retries, out-of-memory kills, wild
//! pointers, trace-ring overflow — the system degrades the way the real
//! one would, without wedging the event loop.

use ess_io_study::apps::SimFile;
use ess_io_study::kernel::Placement;
use ess_io_study::prelude::*;

#[test]
fn disk_fault_injection_slows_but_completes() {
    let clean = Experiment::nbody().quick().seed(61).run();
    let faulty = Experiment::nbody()
        .quick()
        .seed(61)
        // 1 in 10 commands is served slowly (drive-internal retries).
        .faults(FaultPlan::none().disk(DiskFaultConfig {
            slow_every: 10,
            ..Default::default()
        }))
        .run();

    assert!(clean.all_clean() && faulty.all_clean());
    // Same logical work happened.
    assert_eq!(clean.exits.len(), faulty.exits.len());
    // The retry penalties pushed completion later (or equal at worst).
    assert!(
        faulty.duration >= clean.duration,
        "faulty {} vs clean {}",
        faulty.duration,
        clean.duration
    );
}

#[test]
fn oom_kills_the_offender_and_spares_the_rest() {
    // A node with a tiny swap area: a memory hog must be OOM-killed while
    // a well-behaved neighbour process finishes untouched.
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 1,
        frames_user: 64,
        ..Default::default()
    });
    bw.spawn(0, "hog", 0, |mut ctx| async move {
        use ess_io_study::apps::CtxExt;
        let (base, pages) = ctx
            .sys(ess_io_study::kernel::Syscall::MapAnon { pages: 40_000 })
            .await
            .mapped();
        // Touch far more pages than frames + swap slots can ever hold.
        for p in 0..pages as u64 {
            ctx.touch(base + p).await;
            ctx.compute(50).await;
        }
        0
    });
    bw.spawn(0, "bystander", 0, |mut ctx| async move {
        let mut f = SimFile::open(&mut ctx, "/ok", true, Placement::User).await;
        for _ in 0..20 {
            f.append(&mut ctx, vec![1u8; 512]).await;
            ctx.compute(400_000).await;
        }
        f.fsync(&mut ctx).await;
        f.close(&mut ctx).await;
        0
    });
    bw.run_apps(12_000_000);
    let exits = bw.exits();
    assert_eq!(exits.len(), 2);
    let hog = exits
        .iter()
        .find(|e| e.name.contains("hog"))
        .expect("hog exited");
    // Killed either by swap exhaustion (139) — or, if swap is large enough
    // on this layout, it simply never finishes in bounded time; the tiny
    // frame pool + huge mapping guarantees the OOM path here.
    assert_eq!(hog.code, 139, "{hog:?}");
    assert!(hog.name.contains("out of memory"), "{hog:?}");
    let bystander = exits
        .iter()
        .find(|e| e.name.contains("bystander"))
        .expect("bystander");
    assert_eq!(bystander.code, 0);
}

#[test]
fn swap_slots_freed_at_exit_are_reused_deterministically() {
    // "early" pages 200 anonymous pages through 64 frames and exits with
    // its swap slots allocated; "late" then reuses them. The sectors it
    // writes must not depend on the order the exit freed the slots in.
    const LATE: u64 = 30_000_000;
    fn run() -> (Vec<(u64, u32)>, Vec<ess_io_study::trace::TraceRecord>) {
        use ess_io_study::apps::CtxExt;
        use ess_io_study::trace::Origin;
        let mut bw = Beowulf::new(BeowulfConfig {
            nodes: 1,
            frames_user: 64,
            ..Default::default()
        });
        for (name, start) in [("early", 0), ("late", LATE)] {
            bw.spawn(0, name, start, |mut ctx| async move {
                let (base, pages) = ctx
                    .sys(ess_io_study::kernel::Syscall::MapAnon { pages: 200 })
                    .await
                    .mapped();
                ctx.touch_range(base, pages as u64).await;
                ctx.compute(1_000_000).await; // flushes the touch batch
                0
            });
        }
        bw.run_apps(1_000_000);
        assert!(bw.exits().iter().all(|e| e.code == 0), "{:?}", bw.exits());
        let trace = bw.take_trace();
        let swap_outs = (trace.iter())
            .filter(|r| r.origin == Origin::SwapOut)
            .map(|r| (r.ts, r.sector))
            .collect();
        (swap_outs, trace)
    }
    let first = run();
    assert!(first.0.iter().any(|&(ts, _)| ts < LATE), "early swaps");
    assert!(first.0.iter().any(|&(ts, _)| ts >= LATE), "late swaps");
    for _ in 0..2 {
        assert_eq!(run(), first);
    }
}

#[test]
fn wild_pointer_is_a_segfault_not_a_hang() {
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 1,
        ..Default::default()
    });
    bw.spawn(0, "wild", 0, |mut ctx| async move {
        ctx.touch(0xFFFF_FFFF).await;
        ctx.compute(1_000_000).await; // forces the touch batch to flush
        0
    });
    bw.run_apps(1_000_000);
    assert_eq!(bw.exits()[0].code, 139);
    assert!(bw.exits()[0].name.contains("segmentation fault"));
}

#[test]
fn app_panic_is_contained_as_exit_code_101() {
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 2,
        ..Default::default()
    });
    bw.spawn(0, "crasher", 0, |_ctx| async move {
        panic!("numerical blow-up")
    });
    bw.spawn(1, "survivor", 0, |mut ctx| async move {
        ctx.compute(5_000_000).await;
        0
    });
    bw.run_apps(1_000_000);
    let codes: Vec<i32> = bw.exits().iter().map(|e| e.code).collect();
    assert!(codes.contains(&101));
    assert!(codes.contains(&0));
}

#[test]
fn trace_ring_overflow_drops_oldest_but_keeps_running() {
    // A deliberately tiny ring: the driver keeps serving I/O, the ring
    // records the overflow honestly.
    use ess_io_study::disk::{BlockRequest, IdeDriver, SchedPolicy, SubmitOutcome, TimingModel};
    use ess_io_study::trace::{InstrumentationLevel, Op, Origin};
    let mut d = IdeDriver::new(0, TimingModel::beowulf_ide(), SchedPolicy::Elevator, 16);
    d.set_instrumentation(InstrumentationLevel::Full);
    let mut now = 0;
    for i in 0..100u64 {
        let req = BlockRequest {
            sector: (i as u32 * 100) & !1,
            nsectors: 2,
            op: Op::Write,
            origin: Origin::Log,
            token: i,
            relocated: false,
        };
        if let SubmitOutcome::Dispatched { completes_at } = d.submit(now, req) {
            now = completes_at
        }
        if d.busy() {
            let (_, next) = d.on_complete(now);
            if let Some(t) = next {
                now = t;
            }
        }
    }
    assert!(
        d.trace_dropped() > 0,
        "the 16-slot ring must have overflowed"
    );
    assert_eq!(d.trace_len(), 16);
    assert_eq!(d.stats().dispatched, 100, "I/O service was never impeded");
}

#[test]
fn zero_length_and_bad_fd_syscalls_error_cleanly() {
    use ess_io_study::apps::CtxExt;
    use ess_io_study::kernel::{SysError, SysResult, Syscall};
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 1,
        ..Default::default()
    });
    bw.spawn(0, "prober", 0, |mut ctx| async move {
        let r = ctx.sys(Syscall::MapAnon { pages: 0 }).await;
        assert_eq!(r, SysResult::Err(SysError::Invalid));
        let r = ctx
            .sys(Syscall::ReadAt {
                fd: 42,
                offset: 0,
                len: 8,
            })
            .await;
        assert_eq!(r, SysResult::Err(SysError::BadFd));
        let r = ctx
            .sys(Syscall::Open {
                path: "/nope".into(),
                create: false,
                placement: Placement::User,
            })
            .await;
        assert_eq!(r, SysResult::Err(SysError::NotFound));
        let r = ctx
            .sys(Syscall::Unlink {
                path: "/nope".into(),
            })
            .await;
        assert_eq!(r, SysResult::Err(SysError::NotFound));
        0
    });
    bw.run_apps(1_000_000);
    assert_eq!(bw.exits()[0].code, 0, "{:?}", bw.exits());
}
