//! # essio-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate under the whole ESS I/O reproduction: a
//! virtual clock, a time-ordered event queue, a deterministic pseudo-random
//! number generator, and a *lock-step process host* that lets workload code
//! be written as ordinary imperative (`async`) Rust while the simulation
//! retains full control of virtual time.
//!
//! ## Design
//!
//! * [`engine::Engine`] is generic over the event payload type. Subsystem
//!   crates (disk, kernel, net) never schedule events themselves; they return
//!   *effects* ("this request completes at t + 13.4 ms") and the top-level
//!   world loop in the `essio` crate turns those into queued events. This
//!   keeps every subsystem trivially unit-testable with a bare clock.
//! * [`process::ProcessHost`] holds application code as a future that the
//!   engine polls on its own thread. A body runs until it suspends in a
//!   [`process::ProcCtx`] call, which posts one message (compute, request or
//!   exit) to the process's mailbox; the next poll resumes it with the
//!   reply. No process ever blocks a thread and there is one thread of
//!   control, so execution is deterministic.
//! * [`rng::SimRng`] is a small, self-contained PCG32 generator so traces are
//!   reproducible bit-for-bit across runs and platforms, independent of any
//!   external crate's stream stability guarantees.
//!
//! ## Quick example
//!
//! ```
//! use essio_sim::engine::Engine;
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_at(100, "hello");
//! engine.schedule_at(50, "world");
//! assert_eq!(engine.pop(), Some((50, "world")));
//! assert_eq!(engine.pop(), Some((100, "hello")));
//! assert_eq!(engine.now(), 100);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod process;
pub mod rng;
pub mod time;

pub use engine::Engine;
pub use process::{BodyLedger, ProcConfig, ProcCtx, ProcMsg, ProcessHost, Vpn};
pub use rng::SimRng;
pub use time::{SimTime, MICROS_PER_MILLI, MICROS_PER_SEC};
