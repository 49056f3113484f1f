//! # essio-bench — figure/table regeneration and the bench gate
//!
//! The binaries (`src/bin/`) regenerate the paper's evaluation:
//! `paper` writes every figure and table (or the ones named with
//! `--only fig1` … `fig8`, `table1`), `experiment` and `campaign` run one
//! experiment kind. Each accepts `--full` to run at paper scale (16 nodes,
//! full durations; seconds of host time) and defaults to a quick 2-node
//! variant. `conform` checks the conformance matrix against its goldens.
//! The design-knob ablations, and the paper's claim that instrumentation
//! "did not measurably change the execution time of any of the
//! applications", are asserted in the root package's `tests/ablations.rs`.
//!
//! `bench_gate` is the one host-performance harness: it times seven
//! micro-workloads built from [`synthetic_trace`], [`full_node_cache`] and
//! [`flush_tick`] against the medians committed in `BENCH_baseline.json`.

use essio::prelude::*;

/// Command-line switches of the `paper` binary.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Run at paper scale (16 nodes, full durations).
    pub full: bool,
    /// The artifacts named with `--only`; empty means all of them.
    pub only: Vec<figures::Artifact>,
}

impl Cli {
    /// Parse from `std::env::args`.
    pub fn parse() -> Cli {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => cli.full = true,
                "--only" => {
                    let v = args.next().unwrap_or_default();
                    let artifact = figures::Artifact::from_slug(&v).unwrap_or_else(|| {
                        eprintln!("--only takes fig1..fig8 or table1, got {v:?}");
                        std::process::exit(2);
                    });
                    cli.only.push(artifact);
                }
                "--help" | "-h" => {
                    eprintln!("usage: paper [--full] [--only fig1..fig8|table1]...");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        cli
    }

    /// Build an experiment at the selected scale.
    pub fn experiment(&self, kind: ExperimentKind) -> Experiment {
        let e = Experiment::new(kind);
        if self.full {
            e
        } else {
            e.quick()
        }
    }

    /// Run and time an experiment, reporting to stderr.
    pub fn run(&self, kind: ExperimentKind) -> ExperimentResult {
        let label = kind.name();
        let scale = if self.full {
            "full (16-node)"
        } else {
            "quick (2-node)"
        };
        eprintln!("running {label} experiment at {scale} scale...");
        let t0 = std::time::Instant::now();
        let r = self.experiment(kind).run();
        eprintln!(
            "  done in {:.2?} host time: {:.0}s virtual, {} trace records, clean={}",
            t0.elapsed(),
            r.duration_s(),
            r.trace.len(),
            r.all_clean()
        );
        r
    }
}

/// Build a deterministic synthetic trace for the codec and analysis gate
/// cells.
pub fn synthetic_trace(n: usize) -> Vec<essio_trace::TraceRecord> {
    use essio_trace::{Op, Origin, TraceRecord};
    let mut rng = essio_sim::SimRng::new(0xBEEF);
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            t += rng.below(200_000);
            let class = rng.below(10);
            let (sector, nsectors, op, origin) = match class {
                0..=4 => (
                    45_000 + rng.below(2_000) as u32,
                    2u16,
                    Op::Write,
                    Origin::Log,
                ),
                5..=6 => (
                    399_000 - rng.below(50_000) as u32,
                    8,
                    Op::Write,
                    Origin::SwapOut,
                ),
                7 => (
                    399_000 - rng.below(50_000) as u32,
                    8,
                    Op::Read,
                    Origin::SwapIn,
                ),
                8 => (
                    60_000 + rng.below(200_000) as u32,
                    32,
                    Op::Read,
                    Origin::FileData,
                ),
                _ => (
                    940_000 + rng.below(10_000) as u32,
                    2,
                    Op::Write,
                    Origin::TraceDump,
                ),
            };
            TraceRecord {
                ts: t,
                sector,
                nsectors,
                pending: rng.below(8) as u16,
                node: rng.below(16) as u8,
                op,
                origin,
            }
        })
        .collect()
}

/// A Beowulf node's buffer cache (`KernelConfig::beowulf`), full of clean
/// blocks `0..cache_blocks`: what the `update` daemon finds on a node whose
/// reads have filled the cache.
pub fn full_node_cache() -> essio_kernel::cache::BufferCache {
    let blocks = essio_kernel::KernelConfig::beowulf(0).cache_blocks;
    let mut cache = essio_kernel::cache::BufferCache::new(blocks);
    for b in 0..blocks as u32 {
        cache.insert_clean(b, essio_trace::Origin::FileData);
    }
    cache
}

/// One `update` tick in the baseline's shape: dirty 4 resident blocks of
/// `cache` (spread over it by `tick`), then flush. Returns the blocks
/// flushed.
pub fn flush_tick(cache: &mut essio_kernel::cache::BufferCache, tick: u32) -> usize {
    let resident = cache.len() as u32;
    for i in 0..4 {
        let blk = tick.wrapping_mul(4).wrapping_add(i).wrapping_mul(389) % resident;
        cache.mark_dirty(blk, essio_trace::Origin::Log);
    }
    cache.take_dirty().len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn synthetic_trace_is_deterministic_and_ordered() {
        let a = super::synthetic_trace(1000);
        let b = super::synthetic_trace(1000);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }

    #[test]
    fn a_flush_tick_flushes_four_blocks_and_evicts_none() {
        let mut cache = super::full_node_cache();
        let full = cache.len();
        for tick in 0..1000 {
            assert_eq!(super::flush_tick(&mut cache, tick), 4);
        }
        assert_eq!(cache.len(), full);
        assert_eq!(cache.stats.evictions, 0);
    }
}
