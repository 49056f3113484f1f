//! Parallel seed campaign with streaming analytics.
//!
//! Runs one experiment kind across N seeds concurrently (rayon fan-out),
//! each run in *streaming* mode: records fold into a per-run
//! [`StreamSummary`] as they leave the kernel rings and the raw trace is
//! never accumulated, so peak resident trace memory per run is bounded by
//! the kernel ring capacities regardless of run length. The per-seed
//! shards are then reduced with a parallel merge and reported as:
//!
//! * a merged Table-1 row (per-disk averages over the whole campaign),
//! * per-seed divergence: each seed's read% and req/s against the merged
//!   figure, flagging outlier seeds,
//! * the sketch views (hot-sector sketch, inter-arrival histogram).
//!
//! Usage: `campaign [--seeds N] [--kind baseline|ppm|wavelet|nbody|combined]
//! [--faults none|disk|net|crash|all] [--full] [--obs-dir DIR]` — defaults:
//! 8 seeds, combined, no faults, quick scale, no observability output.
//!
//! With `--obs-dir DIR`, every seed runs with the observability plane on
//! and writes three artifacts into `DIR`: `seed-N.trace.json` (Chrome
//! trace-event JSON, loadable at `ui.perfetto.dev`), `seed-N.proc.txt`
//! (the `/proc`-style counter snapshot) and `seed-N.json` (run metadata:
//! host-side perf counters plus the full metrics registry). The metrics
//! registries of all completed seeds are also merged — scope-wise, order
//! independent — into `merged.json` / `merged.proc.txt`.
//!
//! With `--faults`, every seed runs under the same deterministic
//! [`FaultPlan`] preset; seeds that end degraded (or crash outright) are
//! reported in a Degradation section and the merged statistics are
//! computed from whatever completed — a failed seed is never fatal to the
//! campaign.
//!
//! Exit codes: `0` success, `2` I/O or argument error, `3` conformance
//! failure (every seed died, so no merged statistics exist).

use rayon::prelude::*;

use essio::prelude::*;
use essio_conform::FaultsPreset;
use essio_stream::{merge_all, StreamConfig, StreamSummary};

struct Args {
    seeds: u64,
    kind: ExperimentKind,
    faults: FaultsPreset,
    full: bool,
    obs_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 8,
        kind: ExperimentKind::Combined,
        faults: FaultsPreset::None,
        full: false,
        obs_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let v = it.next().unwrap_or_default();
                args.seeds = v.parse().unwrap_or_else(|_| {
                    eprintln!("--seeds needs a positive integer, got {v:?}");
                    std::process::exit(2);
                });
                if args.seeds == 0 {
                    eprintln!("--seeds must be >= 1");
                    std::process::exit(2);
                }
            }
            "--kind" => {
                let v = it.next().unwrap_or_default();
                args.kind = ExperimentKind::from_slug(&v).unwrap_or_else(|| {
                    eprintln!("unknown kind {v:?}");
                    std::process::exit(2);
                });
            }
            "--faults" => {
                let v = it.next().unwrap_or_default();
                args.faults = FaultsPreset::from_label(&v).unwrap_or_else(|| {
                    eprintln!("unknown fault preset {v:?}");
                    std::process::exit(2);
                });
            }
            "--full" => args.full = true,
            "--obs-dir" => match it.next() {
                Some(dir) if !dir.is_empty() => args.obs_dir = Some(dir.into()),
                _ => {
                    eprintln!("--obs-dir needs a directory path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: campaign [--seeds N] [--kind baseline|ppm|wavelet|nbody|combined] [--faults none|disk|net|crash|all] [--full] [--obs-dir DIR]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

fn experiment(
    kind: ExperimentKind,
    full: bool,
    seed: u64,
    faults: FaultsPreset,
    obs: bool,
) -> Experiment {
    let e = Experiment::new(kind);
    let e = if full { e } else { e.quick() };
    let nodes = e.cluster.nodes;
    e.seed(seed).faults(faults.plan(nodes)).obs(obs)
}

/// Write one file under the obs dir, or die with a usable message — a
/// campaign whose artifacts silently failed to land is worse than one
/// that stops.
fn write_obs(
    dir: &std::path::Path,
    name: &str,
    write: impl FnOnce(&std::path::Path) -> std::io::Result<()>,
) {
    let path = dir.join(name);
    if let Err(e) = write(&path) {
        eprintln!("campaign: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// Per-seed obs artifacts plus the cross-seed metric merge.
fn export_obs(
    dir: &std::path::Path,
    kind: ExperimentKind,
    runs: &mut [(u64, StreamedRun, StreamSummary)],
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("campaign: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let mut merged = essio_obs::MetricsRegistry::new();
    let mut merged_seeds = 0u64;
    for (seed, run, _) in runs.iter_mut() {
        let Some(report) = run.obs.take() else {
            continue; // seed ran before the obs knob existed — impossible here
        };
        merged.merge(&report.metrics);
        merged_seeds += 1;
        write_obs(dir, &format!("seed-{seed}.trace.json"), |p| {
            report.save_chrome_trace(p)
        });
        write_obs(dir, &format!("seed-{seed}.proc.txt"), |p| {
            std::fs::write(p, report.proc_text())
        });
        let meta = PerSeedMeta {
            seed: *seed,
            kind: kind.name(),
            duration_us: run.duration,
            perf: run.perf,
            obs: report,
        };
        let json = serde_json::to_string_pretty(&meta).unwrap_or_else(|e| {
            eprintln!("campaign: seed {seed} metadata failed to serialize: {e}");
            std::process::exit(2);
        });
        write_obs(dir, &format!("seed-{seed}.json"), |p| {
            std::fs::write(p, json)
        });
    }
    let merged_json = serde_json::to_string_pretty(&merged).unwrap_or_else(|e| {
        eprintln!("campaign: merged metrics failed to serialize: {e}");
        std::process::exit(2);
    });
    write_obs(dir, "merged.json", |p| std::fs::write(p, merged_json));
    write_obs(dir, "merged.proc.txt", |p| {
        std::fs::write(p, merged.render_text(""))
    });
    eprintln!(
        "obs: wrote {merged_seeds} seed reports + merged metrics to {}",
        dir.display()
    );
}

/// The `seed-N.json` document: which run this was, how fast the host
/// executed it, and the full metrics snapshot.
#[derive(serde::Serialize)]
struct PerSeedMeta {
    seed: u64,
    kind: &'static str,
    duration_us: u64,
    perf: RunPerf,
    obs: essio_obs::ObsReport,
}

/// One seed's result; `None` if the run panicked.
type Outcome = (u64, Option<(StreamedRun, StreamSummary)>);

fn main() {
    let args = parse_args();
    // Reserve the seed list and one outcome slot per seed before any seed
    // runs, so a count this host cannot hold exits 2 instead of aborting.
    let n = usize::try_from(args.seeds).unwrap_or(usize::MAX);
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    if let Err(e) = outcomes
        .try_reserve_exact(n)
        .and_then(|()| seeds.try_reserve_exact(n))
    {
        eprintln!("campaign: cannot hold {} seeds: {e}", args.seeds);
        std::process::exit(2);
    }
    seeds.extend(1..=args.seeds);
    let cfg = StreamConfig::paper(essio_disk::DiskGeometry::BEOWULF_500MB.total_sectors());
    let kind = args.kind;
    let scale = if args.full {
        "full (16-node)"
    } else {
        "quick (2-node)"
    };
    eprintln!(
        "campaign: {} x {} seeds at {scale} scale, {} workers, streaming (trace never materialised)",
        kind.name(),
        args.seeds,
        rayon::max_threads().min(args.seeds as usize),
    );

    let obs = args.obs_dir.is_some();
    let t0 = std::time::Instant::now();
    // A seed that dies (panics) under fault injection is reported and
    // merged-around, never fatal to the campaign.
    seeds
        .into_par_iter()
        .map(|seed| {
            let result = std::panic::catch_unwind(|| {
                experiment(kind, args.full, seed, args.faults, obs)
                    .run_streamed(StreamSummary::new(cfg))
            });
            (seed, result.ok())
        })
        .collect_into_vec(&mut outcomes);
    eprintln!("campaign finished in {:.2?} host time", t0.elapsed());

    let failed: Vec<u64> = outcomes
        .iter()
        .filter(|(_, r)| r.is_none())
        .map(|(s, _)| *s)
        .collect();
    let mut runs: Vec<(u64, StreamedRun, StreamSummary)> = outcomes
        .into_iter()
        .filter_map(|(seed, r)| r.map(|(run, summary)| (seed, run, summary)))
        .collect();
    if runs.is_empty() {
        println!("every seed failed under the fault plan; nothing to merge");
        if !failed.is_empty() {
            println!("failed seeds: {failed:?}");
        }
        // No merged statistics exist, so the campaign's contract was not
        // met: conformance exit, not an I/O one.
        std::process::exit(3);
    }

    if let Some(dir) = &args.obs_dir {
        export_obs(dir, kind, &mut runs);
    }

    let nodes = runs.first().map(|(_, r, _)| r.nodes).unwrap_or(1).max(1) as u64;
    let total_duration: u64 = runs.iter().map(|(_, r, _)| r.duration).sum();

    // Per-seed finalized views (each bit-identical to what a batch analysis
    // of that seed's trace would report).
    let per_seed: Vec<(u64, f64, f64, u64)> = runs
        .iter()
        .map(|(seed, run, s)| {
            let rw = s.exact.rw.finalize(run.duration);
            (*seed, rw.read_pct(), rw.req_per_sec(), rw.total)
        })
        .collect();

    // Per-seed degradation (before the shards are consumed by the merge).
    let degraded: Vec<(u64, String)> = runs
        .iter()
        .filter(|(_, run, _)| !run.degradation.is_clean())
        .map(|(seed, run, _)| (*seed, run.degradation.report()))
        .collect();

    // Cross-seed reduction: parallel shard merge, then one report.
    let shards: Vec<StreamSummary> = runs.into_iter().map(|(_, _, s)| s).collect();
    let merged = merge_all(shards).expect("at least one seed");

    let mut rw = merged.exact.rw.finalize(total_duration);
    rw.reads /= nodes;
    rw.writes /= nodes;
    rw.total /= nodes;
    rw.read_bytes /= nodes;
    rw.write_bytes /= nodes;

    println!(
        "merged Table-1 row ({} seeds, average per disk):",
        per_seed.len()
    );
    println!("{}", essio_trace::analysis::RwStats::table_header());
    println!("{}", rw.table_row(kind.name()));
    println!();

    let mean_read = per_seed.iter().map(|(_, r, _, _)| r).sum::<f64>() / per_seed.len() as f64;
    let mean_rate = per_seed.iter().map(|(_, _, q, _)| q).sum::<f64>() / per_seed.len() as f64;
    println!("per-seed divergence (vs campaign mean):");
    println!("  seed   reads%   Δreads%    req/s    Δreq/s   total");
    for (seed, read, rate, total) in &per_seed {
        println!(
            "  {seed:>4} {read:>8.2} {:>+9.2} {rate:>8.2} {:>+9.2} {total:>7}",
            read - mean_read,
            rate - mean_rate,
        );
    }
    let max_rate_dev = per_seed
        .iter()
        .map(|(_, _, q, _)| (q - mean_rate).abs())
        .fold(0.0, f64::max);
    println!(
        "  max |Δreq/s| = {max_rate_dev:.3} ({:.1}% of mean)",
        100.0 * max_rate_dev / mean_rate.max(1e-9)
    );
    println!();

    if args.faults != FaultsPreset::None || !degraded.is_empty() || !failed.is_empty() {
        println!(
            "Degradation ({} of {} seeds degraded):",
            degraded.len(),
            per_seed.len()
        );
        if degraded.is_empty() && failed.is_empty() {
            println!("  all seeds clean");
        }
        for (seed, report) in &degraded {
            println!("  seed {seed}:");
            for line in report.lines().skip(1) {
                println!("  {line}");
            }
        }
        if !failed.is_empty() {
            println!("  seeds that died and were merged around: {failed:?}");
        }
        println!();
    }

    println!(
        "{}",
        merged.report(
            &format!("{} campaign (merged)", kind.name()),
            total_duration
        )
    );
}
