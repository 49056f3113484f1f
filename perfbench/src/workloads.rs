//! The four workloads and how one benchmark run measures them.
//!
//! An untraced run warms up (untimed), sets the workload up at least
//! [`SETUP_REPS`] times, then times samples through the public `Experiment`
//! API for the requested seconds and reports `wall_s`, `peak_rss_mb` and
//! `setup_s` as medians. A traced
//! run alternates an untraced sample with a traced one (the
//! [`driver`] for simulations, per-call timing for replays), checks that
//! both produced the same run, and then probes the layers no sample
//! exercised on the workload's own trace.

use std::time::Instant;

use essio::experiment::Experiment;
use essio_sim::SimTime;
use essio_trace::codec::{encode_columnar, DecodeError};
use essio_trace::TraceRecord;

use crate::check::{exit_problems, judge, sim_block, Tally};
use crate::driver::{self, stream_summary};
use crate::probes::{self, Legs};
use crate::procfs;
use crate::report::{table, Reported, Samples, END_TO_END, PER_LAYER};

/// Virtual seconds `baseline-soak` observes: long enough to time (about a
/// host second), where the paper's 2000 s window takes 0.04 s.
const SOAK_SECS: u64 = 40_000;
/// Seeds one `wavelet-stream` sample simulates.
const WAVELET_SEEDS: u64 = 4;
/// Replay rounds one `trace-replay` sample makes.
const REPLAY_ROUNDS: usize = 10;
/// Fewest set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Seconds of set-ups before each sample of a simulation workload. Its
/// set-up (building the specs) takes well under a microsecond, and the host
/// runs slower in phases of seconds, so set-ups are spread over the whole
/// run, as the samples are.
const SETUP_BURST_SECS: f64 = 0.005;
/// Fewest samples an untraced run times.
const MIN_SAMPLES: usize = 3;
/// Fewest untraced/traced sample pairs a traced run times.
const MIN_PAIRS: usize = 2;

/// A named benchmark workload (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Experiment::combined()` at paper scale, batch `run()`.
    CombinedPaper,
    /// `Experiment::baseline()` at 16 nodes over [`SOAK_SECS`].
    BaselineSoak,
    /// Paper-scale wavelet, streamed, obs on, both exporters rendered.
    WaveletStream,
    /// Decode, stream, fingerprint and summarize a combined-paper trace.
    TraceReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CombinedPaper,
        Workload::BaselineSoak,
        Workload::WaveletStream,
        Workload::TraceReplay,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CombinedPaper => "combined-paper",
            Workload::BaselineSoak => "baseline-soak",
            Workload::WaveletStream => "wavelet-stream",
            Workload::TraceReplay => "trace-replay",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiments one sample runs (for `trace-replay`, the run whose
    /// trace it replays), derived from the seed alone.
    pub fn specs(self, seed: u64) -> Vec<Experiment> {
        match self {
            Workload::CombinedPaper | Workload::TraceReplay => {
                vec![Experiment::combined().seed(seed)]
            }
            Workload::BaselineSoak => {
                vec![Experiment::baseline().duration_secs(SOAK_SECS).seed(seed)]
            }
            Workload::WaveletStream => (0..WAVELET_SEEDS)
                .map(|i| {
                    let derived = seed.wrapping_mul(WAVELET_SEEDS).wrapping_add(i);
                    Experiment::wavelet().obs(true).seed(derived)
                })
                .collect(),
        }
    }
}

/// What one benchmark run prints.
pub struct Outcome {
    /// Human-readable report.
    pub text: String,
    /// The reported metrics.
    pub metrics: Vec<Reported>,
    /// Checked operations.
    pub tally: Tally,
}

/// What the timed part consumes.
enum Inputs {
    Sim {
        specs: Vec<Experiment>,
        streamed: bool,
    },
    Replay(Replay),
}

/// An encoded combined-paper trace and what replaying it must reproduce.
struct Replay {
    encoded: Vec<u8>,
    duration: SimTime,
    hash: u64,
    records: u64,
    summary_json: String,
}

/// Run workload `w` for about `seconds`, traced or not.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut s = Samples::default();
    let mut stats = None;
    let metrics = if traced {
        measure_traced(w, seed, seconds, &mut tally, &mut s, &mut stats)?;
        s.medians(PER_LAYER)?
    } else {
        measure(w, seed, seconds, &mut tally, &mut s, &mut stats)?;
        s.medians(END_TO_END)?
    };
    let mut text = format!(
        "perfbench {} seed {seed}: {} for {seconds} s\nsimulated statistics (deterministic):\n{}",
        w.name(),
        if traced { "traced run" } else { "tracing off" },
        stats.unwrap_or_default(),
    );
    if traced {
        text.push_str(
            "traced runs must reproduce the untraced run identity (checked per sample)\n",
        );
    } else {
        text.push_str("  cache, VM, disk and network counts: see the traced run (--trace 1)\n");
    }
    text.push_str(&format!(
        "checks: {} operations attempted, {} failed\n",
        tally.attempted, tally.failed
    ));
    for note in &tally.notes {
        text.push_str(&format!("  FAILED {note}\n"));
    }
    text.push_str(if traced {
        "per-layer metrics:\n"
    } else {
        "end-to-end metrics:\n"
    });
    text.push_str(&table(&metrics));
    Ok(Outcome {
        text,
        metrics,
        tally,
    })
}

/// The untraced run: warm-up, set-ups, then timed samples.
fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    s: &mut Samples,
    stats: &mut Option<String>,
) -> Result<(), String> {
    warm_up(w, seed, tally);
    let mut inputs = timed_setups(w, seed, SETUP_REPS, 0.0, tally, s, stats)?;
    repeat(seconds, MIN_SAMPLES, || {
        if w != Workload::TraceReplay {
            inputs = timed_setups(w, seed, 1, SETUP_BURST_SECS, tally, s, stats)?;
        }
        procfs::reset_peak_rss()?;
        let wall = sample(&inputs, tally, stats);
        s.push("peak_rss_mb", procfs::peak_rss_mb()?);
        s.push("wall_s", wall);
        Ok(wall)
    })
}

/// The traced run: untraced/traced sample pairs, then layer probes.
fn measure_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    s: &mut Samples,
    stats: &mut Option<String>,
) -> Result<(), String> {
    warm_up(w, seed, tally);
    let inputs = setup(w, seed, tally, stats)?;
    let mut probe_trace: Option<(Vec<TraceRecord>, SimTime)> = None;
    if let Inputs::Replay(_) = &inputs {
        // The simulation layers of trace-replay are those of the run it
        // replays, assembled by the traced driver.
        let t = driver::run(&w.specs(seed)[0], false)?;
        let mut problems = t.problems;
        problems.extend(tally.same_as_before(&[t.id]));
        tally.op("traced set-up run", problems);
        for &(name, v) in &t.layers {
            s.push(name, v);
        }
        probe_trace = Some((t.trace, t.duration));
    }
    repeat(seconds, MIN_PAIRS, || {
        let untraced = sample(&inputs, tally, stats);
        let traced = match &inputs {
            Inputs::Sim { specs, streamed } => {
                sim_traced(specs, *streamed, tally, s, &mut probe_trace)?
            }
            Inputs::Replay(r) => {
                replay_rounds(r, tally, |enc, d| probes::replay_round_traced(enc, d, s))
            }
        };
        s.push("bench.trace_overhead_s", traced - untraced);
        Ok(untraced + traced)
    })?;

    probes::app_kernels(seed, s);
    let (trace, duration) = probe_trace.expect("a traced run keeps its trace");
    match &inputs {
        Inputs::Sim { .. } => {
            let problems = probes::trace_probe(&trace, duration, s)?;
            tally.op("trace probe", problems);
        }
        Inputs::Replay(_) => {
            probes::encode_probe(&trace, s);
            probes::disk_probe(&trace, s);
        }
    }
    if w != Workload::WaveletStream {
        obs_probe(seed, tally, s)?;
    }
    Ok(())
}

/// Call `sample` until one more call, as long as the last, would overrun
/// `seconds`; at least `min` calls. `sample` returns its own length.
fn repeat(
    seconds: f64,
    min: usize,
    mut sample: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut calls = 0;
    loop {
        let last = sample()?;
        calls += 1;
        if calls >= min && start.elapsed().as_secs_f64() + last > seconds {
            return Ok(());
        }
    }
}

/// Set the workload up at least `min` times and for at least `secs`,
/// timing each into `setup_s`; returns the last inputs built.
fn timed_setups(
    w: Workload,
    seed: u64,
    min: usize,
    secs: f64,
    tally: &mut Tally,
    s: &mut Samples,
    stats: &mut Option<String>,
) -> Result<Inputs, String> {
    let started = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let built = std::hint::black_box(setup(w, seed, tally, stats)?);
        s.push("setup_s", t.elapsed().as_secs_f64());
        reps += 1;
        if reps >= min && started.elapsed().as_secs_f64() >= secs {
            return Ok(built);
        }
        // Inputs not returned are freed here, outside the timing.
    }
}

/// Untimed warm-up of a simulation workload: a quick-preset run of the
/// same kind and mode, which checks the build end to end and lets lazy
/// process set-up finish before anything is timed. `trace-replay` needs
/// none; its set-up is a full simulation.
fn warm_up(w: Workload, seed: u64, tally: &mut Tally) {
    if w == Workload::TraceReplay {
        return;
    }
    let quick = w.specs(seed)[0].clone().quick();
    let exits = if w == Workload::WaveletStream {
        quick.run_streamed(stream_summary()).0.exits
    } else {
        quick.run().exits
    };
    tally.op("warm-up", exit_problems(&exits));
}

/// Build the workload's inputs: the experiment specs of a simulation
/// workload; for `trace-replay`, one combined-paper run whose trace it
/// encodes.
fn setup(
    w: Workload,
    seed: u64,
    tally: &mut Tally,
    stats: &mut Option<String>,
) -> Result<Inputs, String> {
    let specs = w.specs(seed);
    if w != Workload::TraceReplay {
        let streamed = w == Workload::WaveletStream;
        return Ok(Inputs::Sim { specs, streamed });
    }
    let r = specs[0].clone().run();
    let (id, mut problems) = judge(r.kind, &r.canonical_json(), &r.perf, &r.exits, &r.summary);
    problems.extend(tally.same_as_before(&[id]));
    tally.op("set-up run", problems);
    stats.get_or_insert_with(|| sim_block(r.kind, r.nodes, r.duration, &id, &r.summary));
    let (hash, records) = probes::fingerprint(&r.trace);
    Ok(Inputs::Replay(Replay {
        encoded: encode_columnar(&r.trace).to_vec(),
        duration: r.duration,
        hash,
        records,
        summary_json: serde_json::to_string(&r.summary).expect("summary serializes"),
    }))
}

/// One untraced sample; returns its wall seconds.
fn sample(inputs: &Inputs, tally: &mut Tally, stats: &mut Option<String>) -> f64 {
    match inputs {
        Inputs::Sim { specs, streamed } => sim_sample(specs, *streamed, tally, stats),
        Inputs::Replay(r) => replay_rounds(r, tally, probes::replay_round),
    }
}

/// Every spec through `Experiment::run`, or `run_streamed` plus both obs
/// exporters; checks each run and its identity against earlier samples.
fn sim_sample(
    specs: &[Experiment],
    streamed: bool,
    tally: &mut Tally,
    stats: &mut Option<String>,
) -> f64 {
    let mut wall = 0.0;
    let mut ids = Vec::new();
    let mut problems = Vec::new();
    let mut block = String::new();
    for exp in specs {
        let t = Instant::now();
        let (kind, nodes, duration, id, summary) = if streamed {
            let (run, sink) = exp.clone().run_streamed(stream_summary());
            let exported = run.obs.as_ref().map_or(0, |o| {
                std::hint::black_box(o.chrome_trace()).len()
                    + std::hint::black_box(o.proc_text()).len()
            });
            wall += t.elapsed().as_secs_f64();
            let summary = sink.finalize(run.duration);
            let (id, p) = judge(
                run.kind,
                &run.canonical_json(&summary),
                &run.perf,
                &run.exits,
                &summary,
            );
            problems.extend(p);
            if exported == 0 {
                problems.push("no obs report to export".into());
            }
            (run.kind, run.nodes, run.duration, id, summary)
        } else {
            let r = exp.clone().run();
            wall += t.elapsed().as_secs_f64();
            let (id, p) = judge(r.kind, &r.canonical_json(), &r.perf, &r.exits, &r.summary);
            problems.extend(p);
            (r.kind, r.nodes, r.duration, id, r.summary)
        };
        block.push_str(&sim_block(kind, nodes, duration, &id, &summary));
        ids.push(id);
    }
    problems.extend(tally.same_as_before(&ids));
    tally.op("sample", problems);
    stats.get_or_insert(block);
    wall
}

/// Every spec through the traced driver; the traced twin of
/// [`sim_sample`], which must reproduce its run identities. Keeps the
/// first run's trace for the layer probes. The attribution share is
/// reported, not judged: it depends on host load, and the benchmark's
/// own release-mode test asserts it.
fn sim_traced(
    specs: &[Experiment],
    streamed: bool,
    tally: &mut Tally,
    s: &mut Samples,
    keep: &mut Option<(Vec<TraceRecord>, SimTime)>,
) -> Result<f64, String> {
    let mut wall = 0.0;
    let mut ids = Vec::new();
    let mut problems = Vec::new();
    for exp in specs {
        let t = driver::run(exp, streamed)?;
        wall += t.wall_s;
        for &(name, v) in &t.layers {
            s.push(name, v);
        }
        if let Some(report) = &t.obs {
            s.push("obs.collect_s", t.collect_s);
            let exported = Instant::now();
            problems.extend(probes::obs_exports(report, s));
            wall += exported.elapsed().as_secs_f64();
        }
        ids.push(t.id);
        problems.extend(t.problems);
        keep.get_or_insert((t.trace, t.duration));
    }
    problems.extend(tally.same_as_before(&ids));
    tally.op("traced sample", problems);
    Ok(wall)
}

/// [`REPLAY_ROUNDS`] replay rounds, each checked against the source run;
/// returns the seconds spent in `round`.
fn replay_rounds(
    r: &Replay,
    tally: &mut Tally,
    mut round: impl FnMut(&[u8], SimTime) -> Result<Legs, DecodeError>,
) -> f64 {
    let mut wall = 0.0;
    for _ in 0..REPLAY_ROUNDS {
        let t = Instant::now();
        let legs = round(&r.encoded, r.duration);
        wall += t.elapsed().as_secs_f64();
        let problems = match legs {
            Ok(legs) => probes::legs_problems(&legs, r.hash, r.records, &r.summary_json),
            Err(e) => vec![format!("the encoded trace did not decode: {e:?}")],
        };
        tally.op("replay round", problems);
    }
    wall
}

/// The obs layer, for workloads that run without it: one paper-scale
/// wavelet run with obs on through the traced driver, rendered by both
/// exporters, as `wavelet-stream` does it (about 0.6 s). Every traced run
/// reports every per-layer metric; a workload's own run with obs on would
/// export hundreds of MB of spans.
fn obs_probe(seed: u64, tally: &mut Tally, s: &mut Samples) -> Result<(), String> {
    let t = driver::run(&Experiment::wavelet().obs(true).seed(seed), true)?;
    s.push("obs.collect_s", t.collect_s);
    let mut problems = t.problems;
    match &t.obs {
        Some(report) => problems.extend(probes::obs_exports(report, s)),
        None => problems.push("obs was on but no report came back".into()),
    }
    tally.op("obs probe", problems);
    Ok(())
}
