//! The application runtime: how workload code talks to the simulated world.
//!
//! Processes are hosted by [`essio_sim::ProcessHost`]; their request type is
//! [`AppCall`] (a kernel syscall or a PVM operation) and their response type
//! [`AppReply`]. This module adds the ergonomic layer the workloads use:
//!
//! * [`CtxExt`] — `ctx.sys(...)`/`ctx.net(...)` with typed unwrapping.
//! * [`SimFile`] — open/read/write/append/fsync against the simulated FS.
//! * [`PagedRegion`] — a mapped anonymous region with *paper-scale* page
//!   count; workloads report their sweep progress through it and the VM
//!   subsystem sees the corresponding page-touch stream.
//! * [`load_program`] — demand-pages an executable's text at startup,
//!   producing the page-in burst the paper observes while "the working set
//!   of the code" builds (§5).

use std::future::Future;

use essio_kernel::{SysResult, Syscall};
use essio_net::{NetOp, NetResult};
use essio_sim::{ProcCtx, Vpn};

/// A request from an application process.
#[derive(Debug, Clone)]
pub enum AppCall {
    /// Kernel syscall.
    Sys(Syscall),
    /// PVM network operation.
    Net(NetOp),
}

/// The response to an [`AppCall`].
#[derive(Debug, Clone)]
pub enum AppReply {
    /// Syscall result.
    Sys(SysResult),
    /// Network result.
    Net(NetResult),
}

/// The process context type every workload body receives.
pub type AppCtx = ProcCtx<AppCall, AppReply>;

/// Typed request helpers over the raw context.
pub trait CtxExt {
    /// Issue a syscall and unwrap the syscall reply.
    fn sys(&mut self, call: Syscall) -> impl Future<Output = SysResult>;
    /// Issue a network operation and unwrap the network reply.
    fn net(&mut self, op: NetOp) -> impl Future<Output = NetResult>;
}

impl CtxExt for AppCtx {
    async fn sys(&mut self, call: Syscall) -> SysResult {
        match self.request(AppCall::Sys(call)).await {
            AppReply::Sys(r) => r,
            AppReply::Net(n) => panic!("kernel call answered with network reply {n:?}"),
        }
    }

    async fn net(&mut self, op: NetOp) -> NetResult {
        match self.request(AppCall::Net(op)).await {
            AppReply::Net(r) => r,
            AppReply::Sys(s) => panic!("network call answered with syscall reply {s:?}"),
        }
    }
}

/// A file handle over the simulated filesystem.
#[derive(Debug)]
pub struct SimFile {
    fd: essio_kernel::Fd,
    offset: u64,
}

impl SimFile {
    /// Open (optionally create) a file.
    pub async fn open(
        ctx: &mut AppCtx,
        path: &str,
        create: bool,
        placement: essio_kernel::Placement,
    ) -> SimFile {
        let fd = ctx
            .sys(Syscall::Open {
                path: path.to_string(),
                create,
                placement,
            })
            .await
            .fd();
        SimFile { fd, offset: 0 }
    }

    /// Sequential read of up to `len` bytes (advances the cursor).
    pub async fn read(&mut self, ctx: &mut AppCtx, len: u32) -> Vec<u8> {
        let data = ctx
            .sys(Syscall::ReadAt {
                fd: self.fd,
                offset: self.offset,
                len,
            })
            .await
            .data();
        self.offset += data.len() as u64;
        data
    }

    /// Sequential write (advances the cursor).
    pub async fn write(&mut self, ctx: &mut AppCtx, data: Vec<u8>) {
        let n = data.len() as u64;
        match ctx
            .sys(Syscall::WriteAt {
                fd: self.fd,
                offset: self.offset,
                data,
            })
            .await
        {
            SysResult::Written(_) => {}
            other => panic!("write failed: {other:?}"),
        }
        self.offset += n;
    }

    /// Append at end-of-file (does not move the cursor).
    pub async fn append(&mut self, ctx: &mut AppCtx, data: Vec<u8>) {
        match ctx.sys(Syscall::Append { fd: self.fd, data }).await {
            SysResult::Written(_) => {}
            other => panic!("append failed: {other:?}"),
        }
    }

    /// Block until this file's dirty blocks are on disk.
    pub async fn fsync(&mut self, ctx: &mut AppCtx) {
        match ctx.sys(Syscall::Fsync { fd: self.fd }).await {
            SysResult::Unit => {}
            other => panic!("fsync failed: {other:?}"),
        }
    }

    /// Close the descriptor.
    pub async fn close(self, ctx: &mut AppCtx) {
        ctx.sys(Syscall::Close { fd: self.fd }).await;
    }

    /// Reposition the cursor.
    pub fn seek(&mut self, offset: u64) {
        self.offset = offset;
    }
}

/// A mapped anonymous region the workload sweeps through.
///
/// `pages` is the *paper-scale* footprint. Workloads call
/// [`PagedRegion::touch_fraction`] (or `touch_bytes`) as their computation
/// progresses; the context batches the page numbers and the kernel VM
/// faults them against the 16 MB frame pool.
#[derive(Debug, Clone)]
pub struct PagedRegion {
    base: Vpn,
    pages: u32,
}

impl PagedRegion {
    /// Map `pages` anonymous pages.
    pub async fn map(ctx: &mut AppCtx, pages: u32) -> PagedRegion {
        let (base, got) = ctx.sys(Syscall::MapAnon { pages }).await.mapped();
        debug_assert_eq!(got, pages);
        PagedRegion { base, pages }
    }

    /// Region length in pages.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Touch the page containing byte `off`.
    pub async fn touch_byte(&self, ctx: &mut AppCtx, off: u64) {
        let page = (off / 4096).min(self.pages as u64 - 1);
        ctx.touch(self.base + page).await;
    }

    /// Touch every page overlapping `[off, off+len)`.
    pub async fn touch_bytes(&self, ctx: &mut AppCtx, off: u64, len: u64) {
        if len == 0 || self.pages == 0 {
            return;
        }
        let first = (off / 4096).min(self.pages as u64 - 1);
        let last = ((off + len - 1) / 4096).min(self.pages as u64 - 1);
        ctx.touch_range(self.base + first, last - first + 1).await;
    }

    /// Touch the slice of the region from `from` to `to` (fractions in
    /// `[0, 1]`) — how a scaled-down computation reports paper-scale
    /// progress through its arrays.
    pub async fn touch_fraction(&self, ctx: &mut AppCtx, from: f64, to: f64) {
        self.touch_fraction_dir(ctx, from, to, true).await;
    }

    /// [`PagedRegion::touch_fraction`] with an explicit sweep direction.
    /// Alternating directions (boustrophedon, the natural pattern of
    /// ADI-style numerical sweeps) matters under memory pressure: a
    /// same-direction rescan of a region larger than the frame pool faults
    /// on *every* page under clock replacement, while a reversed sweep
    /// refaults only the excess.
    pub async fn touch_fraction_dir(&self, ctx: &mut AppCtx, from: f64, to: f64, forward: bool) {
        debug_assert!((0.0..=1.0).contains(&from) && from <= to && to <= 1.0);
        let first = (from * self.pages as f64) as u64;
        let last = ((to * self.pages as f64).ceil() as u64).min(self.pages as u64);
        if last <= first {
            return;
        }
        if forward {
            ctx.touch_range(self.base + first, last - first).await;
        } else {
            let base = self.base;
            ctx.touch_pages((first..last).rev().map(move |p| base + p), 0)
                .await;
        }
    }
}

/// Demand-page a program's text: map it and walk every page with a little
/// compute in between (loader + relocation + init), generating the startup
/// page-in burst. Returns the text mapping base.
pub async fn load_program(ctx: &mut AppCtx, path: &str) -> (Vpn, u32) {
    let (base, pages) = ctx
        .sys(Syscall::MapText {
            path: path.to_string(),
        })
        .await
        .mapped();
    // Relocate/init: 120 µs per page on a 486.
    ctx.touch_pages(base..base + pages as Vpn, 120).await;
    (base, pages)
}

/// Virtual CPU cost model for a 486DX4/100 class node.
pub mod cost {
    /// Microseconds per double-precision floating-point operation
    /// (FADD/FMUL mix, ~20 cycles at 100 MHz).
    pub const FLOP_US: f64 = 0.2;

    /// Bill `flops` floating-point operations to the context.
    pub async fn flops(ctx: &mut super::AppCtx, flops: f64) {
        ctx.compute((flops * FLOP_US) as u64).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essio_sim::{ProcConfig, ProcessHost};

    type Host = ProcessHost<AppCall, AppReply>;

    #[test]
    fn ctxext_routes_and_unwraps() {
        let mut host = Host::spawn("t", ProcConfig::default(), |mut ctx| async move {
            let r = ctx.sys(Syscall::Stat { path: "/x".into() }).await;
            assert!(matches!(r, SysResult::Stat { size: 7 }));
            let r = ctx
                .net(NetOp::Send {
                    to: 1,
                    tag: 0,
                    data: vec![],
                })
                .await;
            assert!(matches!(r, NetResult::Sent));
            0
        });
        let msg = host.resume(0, None);
        let essio_sim::ProcMsg::Request { call, .. } = msg else {
            panic!("{msg:?}")
        };
        assert!(matches!(call, AppCall::Sys(Syscall::Stat { .. })));
        let msg = host.resume(1, Some(AppReply::Sys(SysResult::Stat { size: 7 })));
        let essio_sim::ProcMsg::Request { call, .. } = msg else {
            panic!("{msg:?}")
        };
        assert!(matches!(call, AppCall::Net(NetOp::Send { .. })));
        let msg = host.resume(2, Some(AppReply::Net(NetResult::Sent)));
        assert!(matches!(msg, essio_sim::ProcMsg::Exit { code: 0, .. }));
    }

    #[test]
    fn mismatched_reply_kind_panics_the_process() {
        let mut host = Host::spawn("t", ProcConfig::default(), |mut ctx| async move {
            ctx.sys(Syscall::Stat { path: "/x".into() }).await;
            0
        });
        let _ = host.resume(0, None);
        let msg = host.resume(1, Some(AppReply::Net(NetResult::Sent)));
        // The body panicked → exit code 101 by convention.
        assert!(matches!(msg, essio_sim::ProcMsg::Exit { code: 101, .. }));
    }

    #[test]
    fn paged_region_touch_fraction_covers_expected_pages() {
        let mut host = Host::spawn(
            "t",
            ProcConfig {
                compute_flush_us: u64::MAX,
                touch_flush: 1 << 20,
            },
            |mut ctx| async move {
                let region = PagedRegion {
                    base: 100,
                    pages: 10,
                };
                region.touch_fraction(&mut ctx, 0.0, 0.5).await;
                ctx.request(AppCall::Net(NetOp::Send {
                    to: 0,
                    tag: 0,
                    data: vec![],
                }))
                .await;
                region.touch_fraction(&mut ctx, 0.5, 1.0).await;
                region.touch_byte(&mut ctx, 0).await;
                region.touch_bytes(&mut ctx, 4096, 8192).await;
                ctx.request(AppCall::Net(NetOp::Send {
                    to: 0,
                    tag: 0,
                    data: vec![],
                }))
                .await;
                0
            },
        );
        let msg = host.resume(0, None);
        let essio_sim::ProcMsg::Request { touches, .. } = msg else {
            panic!()
        };
        assert_eq!(touches, (100..105).collect::<Vec<_>>());
        let msg = host.resume(1, Some(AppReply::Net(NetResult::Sent)));
        let essio_sim::ProcMsg::Request { touches, .. } = msg else {
            panic!()
        };
        assert_eq!(touches[..5], [105, 106, 107, 108, 109]);
        assert_eq!(touches[5], 100, "touch_byte(0)");
        assert_eq!(&touches[6..], &[101, 102], "touch_bytes spans pages 1..3");
        host.resume(2, Some(AppReply::Net(NetResult::Sent)));
    }

    #[test]
    fn cost_flops_accumulates_compute() {
        let mut host = Host::spawn(
            "t",
            ProcConfig {
                compute_flush_us: u64::MAX,
                touch_flush: 1 << 20,
            },
            |mut ctx| async move {
                cost::flops(&mut ctx, 1_000_000.0).await; // 0.2 s of 486 time
                ctx.request(AppCall::Net(NetOp::Send {
                    to: 0,
                    tag: 0,
                    data: vec![],
                }))
                .await;
                0
            },
        );
        let msg = host.resume(0, None);
        let essio_sim::ProcMsg::Compute { micros, .. } = msg else {
            panic!("{msg:?}")
        };
        assert_eq!(micros, 200_000);
        let msg = host.resume(200_000, None);
        assert!(matches!(msg, essio_sim::ProcMsg::Request { .. }));
        host.resume(200_001, Some(AppReply::Net(NetResult::Sent)));
    }
}
