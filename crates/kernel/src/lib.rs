//! # essio-kernel — the Linux-like kernel substrate
//!
//! The paper's central observation is that the disk workload is *"a
//! combination of requests generated by both the application and operating
//! system"* (§1) — which is why its instrumentation sat in the device
//! driver, below everything. To reproduce the measured request stream we
//! therefore need the generating mechanisms, and this crate implements them
//! as they existed in a 1995 Linux on a 16 MB node:
//!
//! * [`fs`] — an ext2-like filesystem with 1 KB blocks, inode/bitmap
//!   metadata at low sectors, placement-aware block allocation (log files
//!   in the sector-45,000 region, user data above, system files at high
//!   sectors). The 1 KB block size *is* the paper's smallest request class.
//! * [`cache`] — the buffer cache: write-back with dirty tracking, LRU
//!   eviction, flushed by the `update` daemon. Its flush batching (plus
//!   driver merging) produces the 2–3 KB request population.
//! * [`readahead`] — per-file sequential read-ahead whose window doubles up
//!   to 16 KB (32 KB when several streams compete), the source of the large
//!   transfers in Figures 3 and 5.
//! * [`vm`] — demand paging over a 4096-frame pool: text page-ins from
//!   executables, copy-out/in to a swap area allocated top-down from just
//!   under sector 400,000 (Figure 8's second hot spot). Every 4 KB request
//!   class in the paper comes from here.
//! * [`daemons`] — `syslogd`, kernel table writers and the `update` flush
//!   daemon: the write-only ~0.9 req/s baseline of Figure 1 / Table 1.
//! * [`kernel`] — the dispatcher tying processes (via syscalls and page
//!   touches) and daemons to the instrumented disk driver, exposing an
//!   event-loop friendly API to the cluster world model.

#![warn(missing_docs)]

pub mod cache;
pub mod daemons;
pub mod fs;
pub mod kernel;
pub mod readahead;
pub mod syscall;
pub mod vm;

pub use kernel::{
    Kernel, KernelConfig, Outcome, PowerFailReport, RetryStats, TouchOutcome, WakeKind,
};
pub use syscall::{Fd, Ino, Pid, Placement, SysError, SysResult, Syscall};
