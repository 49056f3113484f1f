//! The traced driver: runs an [`Experiment`] by assembling the cluster from
//! `Beowulf`'s public calls, in the order `Experiment::run` and
//! `Experiment::run_streamed` make them, and times each call from outside.
//!
//! The program itself is not instrumented. A traced run must reproduce the
//! untraced run's canonical hash, events and records, which the workloads
//! check on every traced sample.

use std::time::Instant;

use essio::cluster::Beowulf;
use essio::experiment::{Experiment, ExperimentKind, ExperimentResult, RunPerf, StreamedRun};
use essio::workloads;
use essio_obs::ObsReport;
use essio_sim::SimTime;
use essio_stream::{StreamConfig, StreamSummary};
use essio_trace::analysis::TraceSummary;
use essio_trace::sink::{SharedSink, Tee};
use essio_trace::TraceRecord;

use crate::check::{judge, RunId};
use crate::procfs;

/// Sectors of the disk every experiment runs against.
pub fn total_sectors() -> u32 {
    essio_disk::DiskGeometry::BEOWULF_500MB.total_sectors()
}

/// The streaming summary every streamed run feeds.
pub fn stream_summary() -> StreamSummary {
    StreamSummary::new(StreamConfig::paper(total_sectors()))
}

/// One traced simulation run.
pub struct Traced {
    /// What must equal the untraced run.
    pub id: RunId,
    /// Unclean exits and paper-shape violations.
    pub problems: Vec<String>,
    /// Virtual run length.
    pub duration: SimTime,
    /// Every drained record; copied off the live tap when streamed.
    pub trace: Vec<TraceRecord>,
    /// The obs report, when the experiment turned obs on.
    pub obs: Option<ObsReport>,
    /// Host seconds in `obs_report`.
    pub collect_s: f64,
    /// Host wall seconds of the whole run, the span `Experiment::run` takes.
    pub wall_s: f64,
    /// Layer times and simulated counts of this run, by metric name.
    pub layers: Vec<(&'static str, f64)>,
}

/// Run `exp` through the public `Beowulf` calls, timing each layer.
/// `streamed` mirrors `Experiment::run_streamed` into a `StreamSummary`.
pub fn run(exp: &Experiment, streamed: bool) -> Result<Traced, String> {
    let cpu_start = procfs::process_cpu_s()?;
    let started = Instant::now();
    let mut bw = Beowulf::new(exp.cluster.clone());
    let tap = streamed.then(|| SharedSink::new(Tee(stream_summary(), Vec::<TraceRecord>::new())));
    if let Some(tap) = &tap {
        bw.set_tap(tap.clone());
        bw.set_keep_trace(false);
    }
    if exp.kind != ExperimentKind::Baseline {
        workloads::install_assets(&mut bw, exp.cluster.seed);
    }
    match exp.kind {
        ExperimentKind::Baseline => {}
        ExperimentKind::Ppm => {
            workloads::spawn_ppm_fleet(&mut bw, &exp.ppm, 0);
        }
        ExperimentKind::Wavelet => {
            workloads::spawn_wavelet_fleet(&mut bw, &exp.wavelet, 0);
        }
        ExperimentKind::Nbody => {
            workloads::spawn_nbody_fleet(&mut bw, &exp.nbody, 0);
        }
        ExperimentKind::Combined => {
            workloads::spawn_ppm_fleet(&mut bw, &exp.ppm, 0);
            workloads::spawn_wavelet_fleet(&mut bw, &exp.wavelet, 0);
            workloads::spawn_nbody_fleet(&mut bw, &exp.nbody, 0);
        }
    }
    let assemble_s = started.elapsed().as_secs_f64();

    let engine_start = procfs::thread_cpu_s()?;
    let run_cpu_start = procfs::process_cpu_s()?;
    let run_started = Instant::now();
    let duration = if exp.kind == ExperimentKind::Baseline {
        let end = exp.baseline_secs * 1_000_000;
        bw.run_until(end);
        end
    } else {
        bw.run_apps(exp.settle_secs * 1_000_000);
        bw.now()
    };
    let run_s = run_started.elapsed().as_secs_f64();
    let engine_cpu_s = procfs::thread_cpu_s()? - engine_start;
    let run_cpu_s = procfs::process_cpu_s()? - run_cpu_start;
    if engine_cpu_s <= 0.0 || run_cpu_s <= 0.0 {
        return Err(format!(
            "CPU readings did not advance over a {run_s:.3} s run \
             (engine {engine_cpu_s} s, process {run_cpu_s} s)"
        ));
    }

    let collect_started = Instant::now();
    let obs = bw.obs_report();
    let collect_s = collect_started.elapsed().as_secs_f64();
    let kept = bw.take_trace();
    let perf = RunPerf {
        events: bw.events_delivered(),
        records: bw.records_drained(),
        host_secs: started.elapsed().as_secs_f64(),
    };
    let counts = counts(&bw);
    let nodes = bw.nodes();
    let exits = bw.exits().to_vec();
    let degradation = bw.degradation();
    drop(bw);

    let kind = exp.kind;
    let (summary, trace, json) = match tap {
        None => {
            let summary = TraceSummary::compute(&kept, duration, total_sectors());
            let result = ExperimentResult {
                kind,
                nodes,
                duration,
                trace: kept,
                summary,
                exits: exits.clone(),
                degradation,
                perf,
                obs: None,
            };
            let json = result.canonical_json();
            (result.summary, result.trace, json)
        }
        Some(tap) => {
            let Tee(stream, copy) = tap
                .try_unwrap()
                .map_err(|_| "live tap still shared after the cluster was dropped")?;
            let summary = stream.finalize(duration);
            let meta = StreamedRun {
                kind,
                nodes,
                duration,
                exits: exits.clone(),
                degradation,
                perf,
                obs: None,
            };
            let json = meta.canonical_json(&summary);
            (summary, copy, json)
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s()? - cpu_start;
    let (id, problems) = judge(kind, &json, &perf, &exits, &summary);

    let events = perf.events as f64;
    let mut layers = vec![
        ("core.assemble_s", assemble_s),
        ("core.run_s", run_s),
        ("sim.engine_cpu_s", engine_cpu_s),
        ("sim.ns_per_event", engine_cpu_s * 1e9 / events.max(1.0)),
        ("sim.engine_blocked_s", run_s - engine_cpu_s),
        ("apps.cpu_s", run_cpu_s - engine_cpu_s),
        ("sim.attributed_share", run_cpu_s / run_s),
        ("host.cpu_s", cpu_s),
        ("host.cpu_per_wall", cpu_s / wall_s),
        ("sim.events", events),
        ("trace.records", perf.records as f64),
    ];
    layers.extend(counts);
    Ok(Traced {
        id,
        problems,
        duration,
        trace,
        obs,
        collect_s,
        wall_s,
        layers,
    })
}

/// Simulated cache, VM, disk and network counts, summed over nodes (the
/// deepest queue is the deepest on any node).
fn counts(bw: &Beowulf) -> Vec<(&'static str, f64)> {
    let (mut hits, mut misses, mut dirty) = (0u64, 0u64, 0u64);
    let (mut faults, mut swap_ins, mut swap_outs, mut page_ins) = (0u64, 0u64, 0u64, 0u64);
    let (mut submitted, mut dispatched, mut busy_us, mut depth) = (0u64, 0u64, 0u64, 0usize);
    for n in 0..bw.nodes() {
        let k = bw.kernel(n);
        let c = k.cache_stats();
        hits += c.hits;
        misses += c.misses;
        dirty += c.dirty_evictions;
        let v = k.vm_stats();
        faults += v.faults;
        swap_ins += v.swap_ins;
        swap_outs += v.swap_outs;
        page_ins += v.page_ins;
        let d = k.driver_stats();
        submitted += d.submitted;
        dispatched += d.dispatched;
        busy_us += d.busy_us;
        depth = depth.max(d.max_queue_depth);
    }
    let (messages, bytes) = bw.net_stats();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("kernel.cache.hit_ratio", ratio(hits, hits + misses)),
        ("kernel.cache.misses", misses as f64),
        ("kernel.cache.dirty_evictions", dirty as f64),
        ("kernel.vm.faults", faults as f64),
        ("kernel.vm.swap_ins", swap_ins as f64),
        ("kernel.vm.swap_outs", swap_outs as f64),
        ("kernel.vm.page_ins", page_ins as f64),
        ("disk.submitted", submitted as f64),
        ("disk.dispatched", dispatched as f64),
        ("disk.merge_ratio", ratio(submitted, dispatched)),
        ("disk.busy_s", busy_us as f64 / 1e6),
        ("disk.max_queue_depth", depth as f64),
        ("net.messages", messages as f64),
        ("net.bytes", bytes as f64),
    ]
}
