//! # essio-trace — driver-level I/O traces and their analysis
//!
//! The measured artifact of the IPPS'96 study is a stream of trace records
//! captured inside the IDE disk device driver: one entry per physical
//! request, holding *timestamp, sector, read/write flag, and the count of
//! remaining queued requests* (paper §3.4). This crate provides:
//!
//! * [`record::TraceRecord`] — that record, plus the request length in
//!   sectors (the paper derives sizes for Figures 2–5; we carry them
//!   explicitly) and a ground-truth [`record::Origin`] tag the simulation
//!   can attach because, unlike the original study, we *know* which kernel
//!   path issued each request. Origins are diagnostic only: every
//!   paper metric is computed from the paper's fields.
//! * [`buffer::TraceBuffer`] — the kernel-side ring buffer the instrumented
//!   driver logs into, drained through a simulated `/proc` file, with the
//!   `ioctl`-style level control described in §3.4 (on/off without reboot).
//! * [`codec`] — the columnar binary trace format, batch and streaming.
//! * [`analysis`] — every metric in the paper's §3.6/§4: request-size
//!   decomposition and time series, sector scatter series, read/write mix
//!   (Table 1), spatial locality per sector band (Figure 7), and temporal
//!   locality / hot spots (Figure 8), plus Lorenz/Gini machinery used to
//!   check the "almost follows the 80/20 rule" claim.

#![warn(missing_docs)]

pub mod analysis;
pub mod buffer;
pub mod codec;
pub mod record;
pub mod sink;

pub use buffer::{InstrumentationLevel, TraceBuffer};
pub use record::{Op, Origin, TraceRecord, SECTOR_BYTES};
pub use sink::RecordSink;
