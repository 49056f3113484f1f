//! The five experiments of paper §3.5.
//!
//! *"The instrumentation was turned on and trace file data was collected
//! for I/O requests during four basic experiments"*: (1) the quiescent
//! baseline, (2–4) each application alone, and (5) *"collect data while all
//! three applications were running simultaneously ... to emulate a typical
//! production environment."*
//!
//! [`Experiment`] is a builder over those five kinds plus the knobs the
//! ablation benches sweep (scheduler policy, read-ahead, cache size, node
//! count, seeds). [`Experiment::run`] assembles the cluster, provisions
//! assets, spawns fleets, runs to completion (or for the configured
//! baseline duration), and returns the merged trace with its full
//! [`TraceSummary`].

use essio_apps::{nbody::NbodyConfig, ppm::PpmConfig, wavelet::WaveletConfig};
use essio_faults::FaultPlan;
use essio_sim::SimTime;
use essio_trace::analysis::{RwStats, TraceSummary};
use essio_trace::sink::SharedSink;
use essio_trace::{InstrumentationLevel, RecordSink, TraceRecord};

use essio_obs::ObsReport;
use serde::Serialize;

use crate::cluster::{Beowulf, BeowulfConfig, Degradation, ProcExit};
use crate::workloads;

/// Which experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentKind {
    /// No user applications (paper Figure 1, Table 1 row 1).
    Baseline,
    /// PPM alone (Figure 2).
    Ppm,
    /// Wavelet alone (Figure 3).
    Wavelet,
    /// N-body alone (Figure 4).
    Nbody,
    /// All three simultaneously (Figures 5–8).
    Combined,
}

impl ExperimentKind {
    /// Every kind, in Table 1's row order.
    pub const ALL: [ExperimentKind; 5] = [
        ExperimentKind::Baseline,
        ExperimentKind::Ppm,
        ExperimentKind::Wavelet,
        ExperimentKind::Nbody,
        ExperimentKind::Combined,
    ];

    /// Lowercase command-line and cell-id spelling.
    pub fn slug(self) -> &'static str {
        match self {
            ExperimentKind::Baseline => "baseline",
            ExperimentKind::Ppm => "ppm",
            ExperimentKind::Wavelet => "wavelet",
            ExperimentKind::Nbody => "nbody",
            ExperimentKind::Combined => "combined",
        }
    }

    /// Parse the [`ExperimentKind::slug`] spelling.
    pub fn from_slug(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.slug() == s)
    }

    /// Display name matching Table 1's row labels.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentKind::Baseline => "Baseline",
            ExperimentKind::Ppm => "PPM",
            ExperimentKind::Wavelet => "Wavelet",
            ExperimentKind::Nbody => "N-Body",
            ExperimentKind::Combined => "Combined",
        }
    }
}

/// An experiment specification (builder).
///
/// Every knob the benches and ablation sweeps need is reachable through a
/// chainable setter ([`Experiment::nodes`], [`Experiment::seed`],
/// [`Experiment::sched`], [`Experiment::readahead`],
/// [`Experiment::cache_blocks`], [`Experiment::faults`], …). The fields
/// stay `pub` for construction-by-struct-update in existing code, but
/// direct field mutation is deprecated in favour of the setters — new
/// knobs will only get setters.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Which experiment.
    pub kind: ExperimentKind,
    /// Cluster configuration.
    pub cluster: BeowulfConfig,
    /// Baseline observation window, seconds (paper: 2000 s).
    pub baseline_secs: u64,
    /// Post-exit settling time for write-back, seconds.
    pub settle_secs: u64,
    /// PPM workload parameters.
    pub ppm: PpmConfig,
    /// Wavelet workload parameters.
    pub wavelet: WaveletConfig,
    /// N-body workload parameters.
    pub nbody: NbodyConfig,
}

impl Experiment {
    /// The paper-scale experiment of `kind`; [`Experiment::baseline`] and
    /// its siblings name the same five.
    pub fn new(kind: ExperimentKind) -> Self {
        Self {
            kind,
            cluster: BeowulfConfig::default(),
            baseline_secs: 2000,
            settle_secs: 12,
            ppm: PpmConfig::default(),
            wavelet: WaveletConfig::default(),
            nbody: NbodyConfig::default(),
        }
    }

    /// The quiescent baseline (2000 s by default).
    pub fn baseline() -> Self {
        Self::new(ExperimentKind::Baseline)
    }

    /// PPM alone.
    pub fn ppm() -> Self {
        Self::new(ExperimentKind::Ppm)
    }

    /// Wavelet alone.
    pub fn wavelet() -> Self {
        Self::new(ExperimentKind::Wavelet)
    }

    /// N-body alone.
    pub fn nbody() -> Self {
        Self::new(ExperimentKind::Nbody)
    }

    /// All three simultaneously.
    pub fn combined() -> Self {
        Self::new(ExperimentKind::Combined)
    }

    /// Set the baseline observation window.
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.baseline_secs = secs;
        self
    }

    /// Set the node count (paper: 16).
    pub fn nodes(mut self, nodes: u8) -> Self {
        self.cluster.nodes = nodes;
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cluster.seed = seed;
        self
    }

    /// Set the post-exit write-back settling window.
    pub fn settle_secs(mut self, secs: u64) -> Self {
        self.settle_secs = secs;
        self
    }

    /// Set the disk scheduler policy (ablation knob).
    pub fn sched(mut self, sched: essio_disk::SchedPolicy) -> Self {
        self.cluster.sched = sched;
        self
    }

    /// Enable or disable read-ahead (ablation knob).
    pub fn readahead(mut self, on: bool) -> Self {
        self.cluster.readahead = on;
        self
    }

    /// Set the per-node buffer-cache capacity in blocks (ablation knob).
    pub fn cache_blocks(mut self, blocks: usize) -> Self {
        self.cluster.cache_blocks = blocks;
        self
    }

    /// Set the per-node user frame pool (ablation knob).
    pub fn frames_user(mut self, frames: u32) -> Self {
        self.cluster.frames_user = frames;
        self
    }

    /// Spool the instrumentation trace to disk (its own I/O), or not.
    pub fn spool_trace(mut self, on: bool) -> Self {
        self.cluster.spool_trace = on;
        self
    }

    /// Set the instrumentation level for every node.
    pub fn instrumentation(mut self, level: InstrumentationLevel) -> Self {
        self.cluster.instrumentation = level;
        self
    }

    /// Enable the observability plane: request-lifecycle spans in virtual
    /// time, per-node metrics, and the physical-command timeline, returned
    /// as [`ExperimentResult::obs`] / [`StreamedRun::obs`]. Off by default;
    /// the simulated disk trace is bit-identical either way.
    pub fn obs(mut self, on: bool) -> Self {
        self.cluster.obs = on;
        self
    }

    /// Attach a deterministic fault plan (disk media errors, frame loss,
    /// node crashes). An empty plan leaves the run bit-identical to one
    /// without it.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cluster.faults = plan;
        self
    }

    /// A fast variant for tests and smoke runs: 2 nodes, short workloads.
    /// Paging behaviour is preserved (footprints stay above the frame
    /// pool); only durations, grid sizes and particle counts shrink.
    pub fn quick(mut self) -> Self {
        self.cluster.nodes = 2;
        self.baseline_secs = 120;
        self.ppm.nx = 24;
        self.ppm.ny = 32;
        self.ppm.grids_per_node = 2;
        self.ppm.steps = 10;
        self.ppm.duration_s = 50.0;
        self.ppm.stats_every = 3;
        self.wavelet.size = 64;
        self.wavelet.levels = 3;
        self.wavelet.setup_s = 4.0;
        self.wavelet.transform_s = 25.0;
        self.wavelet.footprint_pages = 3250;
        self.nbody.particles = 96;
        self.nbody.steps = 10;
        self.nbody.duration_s = 55.0;
        self.nbody.stats_every = 2;
        self.nbody.snap_every = 2;
        self
    }

    /// Run the experiment.
    pub fn run(self) -> ExperimentResult {
        let kind = self.kind;
        let out = self.execute(None);
        let summary = TraceSummary::compute(&out.trace, out.duration, Self::total_sectors());
        ExperimentResult {
            kind,
            nodes: out.nodes,
            duration: out.duration,
            trace: out.trace,
            summary,
            exits: out.exits,
            degradation: out.degradation,
            perf: out.perf,
            obs: out.obs,
        }
    }

    /// Run the experiment in streaming mode: every trace record is pushed
    /// into `sink` as it is drained from the kernel rings, and the raw
    /// trace is *not* accumulated host-side. Peak resident trace memory is
    /// bounded by the kernel ring capacities, independent of run length.
    ///
    /// Returns the run metadata and the sink, now holding whatever
    /// incremental state it built (e.g. a `StreamSummary` from
    /// `essio-stream`, which can be finalized against
    /// `result.duration`).
    pub fn run_streamed<S>(self, sink: S) -> (StreamedRun, S)
    where
        S: RecordSink + 'static,
    {
        let kind = self.kind;
        let shared = SharedSink::new(sink);
        let tap = Box::new(shared.clone());
        let out = self.execute(Some(tap));
        debug_assert!(
            out.trace.is_empty(),
            "streaming run must not keep the trace"
        );
        let sink = shared
            .try_unwrap()
            .unwrap_or_else(|_| unreachable!("cluster dropped, tap handle released"));
        (
            StreamedRun {
                kind,
                nodes: out.nodes,
                duration: out.duration,
                exits: out.exits,
                degradation: out.degradation,
                perf: out.perf,
                obs: out.obs,
            },
            sink,
        )
    }

    /// Disk size every experiment runs against.
    fn total_sectors() -> u32 {
        essio_disk::DiskGeometry::BEOWULF_500MB.total_sectors()
    }

    /// Shared run loop behind [`Experiment::run`] and
    /// [`Experiment::run_streamed`]. With a tap the host-side trace vector
    /// stays empty and the returned trace is empty too.
    fn execute(self, tap: Option<Box<dyn RecordSink>>) -> RunOutput {
        let started = std::time::Instant::now();
        let mut bw = Beowulf::new(self.cluster.clone());
        if let Some(tap) = tap {
            bw.set_tap(tap);
            bw.set_keep_trace(false);
        }
        let kind = self.kind;
        if kind != ExperimentKind::Baseline {
            workloads::install_assets(&mut bw, self.cluster.seed);
        }
        match kind {
            ExperimentKind::Baseline => {}
            ExperimentKind::Ppm => {
                workloads::spawn_ppm_fleet(&mut bw, &self.ppm, 0);
            }
            ExperimentKind::Wavelet => {
                workloads::spawn_wavelet_fleet(&mut bw, &self.wavelet, 0);
            }
            ExperimentKind::Nbody => {
                workloads::spawn_nbody_fleet(&mut bw, &self.nbody, 0);
            }
            ExperimentKind::Combined => {
                workloads::spawn_ppm_fleet(&mut bw, &self.ppm, 0);
                workloads::spawn_wavelet_fleet(&mut bw, &self.wavelet, 0);
                workloads::spawn_nbody_fleet(&mut bw, &self.nbody, 0);
            }
        }
        let duration = match kind {
            ExperimentKind::Baseline => {
                let end = self.baseline_secs * 1_000_000;
                bw.run_until(end);
                end
            }
            _ => {
                bw.run_apps(self.settle_secs * 1_000_000);
                bw.now()
            }
        };
        let obs = bw.obs_report();
        let trace = bw.take_trace();
        let perf = RunPerf {
            events: bw.events_delivered(),
            records: bw.records_drained(),
            host_secs: started.elapsed().as_secs_f64(),
        };
        let nodes = bw.nodes();
        let exits = bw.exits().to_vec();
        let degradation = bw.degradation();
        RunOutput {
            nodes,
            duration,
            trace,
            exits,
            degradation,
            perf,
            obs,
        }
    }
}

/// Everything [`Experiment::execute`] hands back to the two public run
/// modes.
struct RunOutput {
    nodes: u8,
    duration: SimTime,
    trace: Vec<TraceRecord>,
    exits: Vec<ProcExit>,
    degradation: Degradation,
    perf: RunPerf,
    obs: Option<ObsReport>,
}

/// Host-side throughput of one simulator run: how fast the simulation
/// itself executed, as opposed to what the simulated disks did. The event
/// count is seed-deterministic, so across code versions at the same seed
/// events/sec moves exactly as wall time does — the end-to-end figure the
/// perf baselines in `BENCH_baseline.json` track.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunPerf {
    /// Simulator events delivered by the engine over the whole run.
    pub events: u64,
    /// Trace records drained from kernel rings (kept or streamed).
    pub records: u64,
    /// Host wall-clock time for the run, seconds (construction through
    /// final trace drain).
    pub host_secs: f64,
}

impl RunPerf {
    /// Simulator events processed per host-side second.
    pub fn events_per_sec(&self) -> f64 {
        if self.host_secs > 0.0 {
            self.events as f64 / self.host_secs
        } else {
            0.0
        }
    }

    /// Trace records produced per host-side second.
    pub fn records_per_sec(&self) -> f64 {
        if self.host_secs > 0.0 {
            self.records as f64 / self.host_secs
        } else {
            0.0
        }
    }
}

/// The canonical serialization of one run's observable outcome — the
/// domain of `essio-conform` summary fingerprints.
///
/// Everything seed-deterministic about a run is included (experiment kind,
/// topology, virtual duration, engine event and trace record counts,
/// process exits, fault degradation, and the full [`TraceSummary`]);
/// host-side measurements (`RunPerf::host_secs`) and the observability
/// report are excluded because they vary run to run without the simulated
/// behaviour changing. Field order is fixed here and every float is
/// rendered with Rust's shortest-roundtrip formatting, so two behaviourally
/// identical runs produce byte-identical JSON.
///
/// Shared by [`ExperimentResult::canonical_json`] and
/// [`StreamedRun::canonical_json`] — batch and streamed runs of the same
/// simulation canonicalize identically by construction. Exits are rendered
/// as `[node, name, code, exit time µs]` rows in exit order.
fn canonical_run_json(
    kind: ExperimentKind,
    nodes: u8,
    duration: SimTime,
    perf: &RunPerf,
    exits: &[ProcExit],
    degradation: &Degradation,
    summary: &TraceSummary,
) -> String {
    use serde::{Serialize as _, Value};
    let doc = Value::Object(vec![
        ("kind".into(), kind.name().to_value()),
        ("nodes".into(), nodes.to_value()),
        ("duration_us".into(), duration.to_value()),
        ("events".into(), perf.events.to_value()),
        ("records".into(), perf.records.to_value()),
        (
            "exits".into(),
            Value::Array(
                exits
                    .iter()
                    .map(|e| (e.node as u64, e.name.as_str(), e.code as i64, e.at).to_value())
                    .collect(),
            ),
        ),
        ("degradation".into(), degradation.to_value()),
        ("summary".into(), summary.to_value()),
    ]);
    serde_json::to_string(&doc).expect("canonical run serialization is infallible")
}

/// Metadata from a streaming run ([`Experiment::run_streamed`]): everything
/// an [`ExperimentResult`] carries except the trace and its batch summary —
/// those live in the caller's sink.
#[derive(Debug)]
pub struct StreamedRun {
    /// Which experiment ran.
    pub kind: ExperimentKind,
    /// Node count.
    pub nodes: u8,
    /// Observation window / run length, µs.
    pub duration: SimTime,
    /// Process exits (empty for the baseline).
    pub exits: Vec<ProcExit>,
    /// Fault and recovery accounting (clean when no plan was attached).
    pub degradation: Degradation,
    /// Host-side throughput of the run.
    pub perf: RunPerf,
    /// Observability report (spans, metrics, physical timeline); `Some`
    /// only when the run was built with [`Experiment::obs`]`(true)`.
    pub obs: Option<ObsReport>,
}

impl StreamedRun {
    /// Run duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration as f64 / 1e6
    }

    /// Canonical JSON of this run's deterministic outcome, given the
    /// finalized summary the caller's sink produced (e.g.
    /// `StreamSummary::finalize(run.duration)`). Byte-identical to
    /// [`ExperimentResult::canonical_json`] for the same simulation.
    pub fn canonical_json(&self, summary: &TraceSummary) -> String {
        canonical_run_json(
            self.kind,
            self.nodes,
            self.duration,
            &self.perf,
            &self.exits,
            &self.degradation,
            summary,
        )
    }

    /// Did every process finish cleanly?
    pub fn all_clean(&self) -> bool {
        self.exits.iter().all(|e| e.code == 0)
    }
}

/// The output of one experiment run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Which experiment ran.
    pub kind: ExperimentKind,
    /// Node count.
    pub nodes: u8,
    /// Observation window / run length, µs.
    pub duration: SimTime,
    /// Every trace record from every node, time-ordered.
    pub trace: Vec<TraceRecord>,
    /// Full characterization of the merged trace.
    pub summary: TraceSummary,
    /// Process exits (empty for the baseline).
    pub exits: Vec<ProcExit>,
    /// Fault and recovery accounting (clean when no plan was attached).
    pub degradation: Degradation,
    /// Host-side throughput of the run.
    pub perf: RunPerf,
    /// Observability report (spans, metrics, physical timeline); `Some`
    /// only when the run was built with [`Experiment::obs`]`(true)`.
    pub obs: Option<ObsReport>,
}

impl ExperimentResult {
    /// Canonical JSON of this run's deterministic outcome — what the
    /// `essio-conform` summary fingerprint hashes. See [`StreamedRun::canonical_json`]
    /// for the streaming twin; both render through the same
    /// `CanonicalRun` document.
    pub fn canonical_json(&self) -> String {
        canonical_run_json(
            self.kind,
            self.nodes,
            self.duration,
            &self.perf,
            &self.exits,
            &self.degradation,
            &self.summary,
        )
    }

    /// The records from one node's disk (figures plot a single disk).
    pub fn node_trace(&self, node: u8) -> Vec<TraceRecord> {
        self.trace
            .iter()
            .filter(|r| r.node == node)
            .copied()
            .collect()
    }

    /// Per-disk-average read/write statistics — what Table 1 reports
    /// ("average per disk").
    pub fn per_disk_rw(&self) -> RwStats {
        let mut s = self.summary.rw;
        let n = self.nodes.max(1) as u64;
        s.reads /= n;
        s.writes /= n;
        s.total /= n;
        s.read_bytes /= n;
        s.write_bytes /= n;
        s
    }

    /// One Table-1 row for this experiment.
    pub fn table1_row(&self) -> String {
        self.per_disk_rw().table_row(self.kind.name())
    }

    /// Run duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration as f64 / 1e6
    }

    /// Did every process finish cleanly?
    pub fn all_clean(&self) -> bool {
        self.exits.iter().all(|e| e.code == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essio_trace::Op;

    #[test]
    fn baseline_is_write_only_at_low_rate() {
        let r = Experiment::baseline().quick().seed(1).run();
        assert!(!r.trace.is_empty());
        assert_eq!(r.summary.rw.reads, 0, "baseline must be 100% writes");
        let rw = r.per_disk_rw();
        let rate = rw.req_per_sec();
        assert!((0.2..3.0).contains(&rate), "per-disk baseline rate {rate}");
    }

    #[test]
    fn ppm_writes_dominate_and_output_exists() {
        let r = Experiment::ppm().quick().seed(2).run();
        assert!(r.all_clean(), "{:?}", r.exits);
        let rw = &r.summary.rw;
        // Quick runs are short, so startup text page-ins weigh more than in
        // the full 235 s run (where writes dominate ~90/10); still, writes
        // must be a substantial share.
        assert!(rw.write_pct() > 35.0, "PPM writes: {}", rw.report());
        assert!(rw.reads > 0, "text page-ins are reads");
        // 1 KB requests dominate (Figure 2).
        use essio_trace::analysis::SizeClass;
        let frac_1k = r.summary.sizes.fraction(SizeClass::B1K);
        assert!(frac_1k > 0.4, "1K fraction {frac_1k}");
    }

    #[test]
    fn nbody_finishes_clean_and_write_dominated() {
        let r = Experiment::nbody().quick().seed(3).run();
        assert!(r.all_clean(), "{:?}", r.exits);
        assert!(r.summary.rw.write_pct() > 30.0, "{}", r.summary.rw.report());
    }

    #[test]
    fn wavelet_has_balanced_mix_and_paging() {
        let r = Experiment::wavelet().quick().seed(4).run();
        assert!(r.all_clean(), "{:?}", r.exits);
        let read_pct = r.summary.rw.read_pct();
        assert!(
            (25.0..70.0).contains(&read_pct),
            "wavelet read% should be near half: {read_pct}"
        );
        // Paging produced 4 KB traffic.
        use essio_trace::analysis::SizeClass;
        assert!(
            r.summary.sizes.count(SizeClass::Page4K) > 10,
            "{:?}",
            r.summary.sizes.by_class
        );
        // And streaming reads grew beyond 4 KB.
        let big_reads = r
            .trace
            .iter()
            .filter(|t| t.op == Op::Read && t.bytes() >= 8 * 1024)
            .count();
        assert!(big_reads > 0, "read-ahead must produce large requests");
    }

    #[test]
    fn combined_runs_all_three_apps() {
        let r = Experiment::combined().quick().seed(5).run();
        assert!(r.all_clean(), "{:?}", r.exits);
        // 3 apps × 2 nodes.
        assert_eq!(r.exits.len(), 6);
        // Combined load exceeds any single app's.
        assert!(
            r.summary.rw.total > 100,
            "combined produces substantial I/O"
        );
    }

    #[test]
    fn experiments_are_reproducible() {
        let a = Experiment::nbody().quick().seed(7).run();
        let b = Experiment::nbody().quick().seed(7).run();
        assert_eq!(a.trace, b.trace);
        let c = Experiment::nbody().quick().seed(8).run();
        assert_ne!(a.trace, c.trace, "different seeds must differ");
    }

    #[test]
    fn builder_setters_reach_every_cluster_knob() {
        use essio_faults::{DiskFaultConfig, FaultPlan};
        let e = Experiment::combined()
            .nodes(4)
            .seed(11)
            .settle_secs(5)
            .sched(essio_disk::SchedPolicy::Fifo)
            .readahead(false)
            .cache_blocks(256)
            .frames_user(512)
            .spool_trace(false)
            .instrumentation(InstrumentationLevel::Off)
            .faults(
                FaultPlan::none()
                    .seed(9)
                    .disk(DiskFaultConfig::degraded_drive()),
            );
        assert_eq!(e.cluster.nodes, 4);
        assert_eq!(e.cluster.seed, 11);
        assert_eq!(e.settle_secs, 5);
        assert_eq!(e.cluster.sched, essio_disk::SchedPolicy::Fifo);
        assert!(!e.cluster.readahead);
        assert_eq!(e.cluster.cache_blocks, 256);
        assert_eq!(e.cluster.frames_user, 512);
        assert!(!e.cluster.spool_trace);
        assert_eq!(e.cluster.instrumentation, InstrumentationLevel::Off);
        assert!(!e.cluster.faults.is_empty());
    }

    #[test]
    fn faulty_runs_are_reproducible_and_report_degradation() {
        use essio_faults::{DiskFaultConfig, FaultPlan};
        let exp = || {
            Experiment::nbody()
                .quick()
                .seed(7)
                .faults(FaultPlan::none().seed(3).disk(DiskFaultConfig {
                    media_error_every: 40,
                    slow_every: 25,
                    ..Default::default()
                }))
        };
        let a = exp().run();
        let b = exp().run();
        assert_eq!(a.trace, b.trace, "same seed + same plan = same trace");
        assert!(!a.degradation.is_clean(), "a degraded drive leaves marks");
        assert!(a.degradation.nodes.iter().any(|n| n.retries > 0));
    }

    #[test]
    fn perf_counters_are_populated_and_deterministic() {
        let a = Experiment::nbody().quick().seed(7).run();
        assert!(a.perf.events > 0, "a run delivers events");
        assert_eq!(
            a.perf.records as usize,
            a.trace.len(),
            "every kept record was counted as drained"
        );
        assert!(a.perf.host_secs > 0.0);
        assert!(a.perf.events_per_sec() > 0.0);
        assert!(a.perf.records_per_sec() > 0.0);
        // Event and record counts depend only on the seed, never on host
        // speed — the invariant that makes events/sec comparable across
        // code versions.
        let b = Experiment::nbody().quick().seed(7).run();
        assert_eq!(a.perf.events, b.perf.events);
        assert_eq!(a.perf.records, b.perf.records);
    }

    #[test]
    fn streamed_run_reports_perf_too() {
        let (run, seen) = Experiment::nbody()
            .quick()
            .seed(7)
            .run_streamed(Vec::<TraceRecord>::new());
        assert_eq!(run.perf.records as usize, seen.len());
        assert!(run.perf.events > 0);
        // Batch and streamed runs at one seed are the same simulation.
        let batch = Experiment::nbody().quick().seed(7).run();
        assert_eq!(run.perf.events, batch.perf.events);
        assert_eq!(run.perf.records, batch.perf.records);
    }

    #[test]
    fn canonical_json_pins_behaviour_not_host_speed() {
        let a = Experiment::nbody().quick().seed(7).run();
        let b = Experiment::nbody().quick().seed(7).run();
        // host_secs always differs between runs; the canonical form must not.
        assert_ne!(a.perf.host_secs, b.perf.host_secs);
        assert_eq!(a.canonical_json(), b.canonical_json());
        let c = Experiment::nbody().quick().seed(8).run();
        assert_ne!(a.canonical_json(), c.canonical_json());
        // And the document carries the load-bearing fields.
        let json = a.canonical_json();
        for key in ["\"kind\"", "\"events\"", "\"exits\"", "\"summary\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("host_secs"));
    }

    #[test]
    fn table1_rows_render() {
        let r = Experiment::baseline().quick().duration_secs(60).run();
        let row = r.table1_row();
        assert!(row.starts_with("Baseline"));
        assert!(row.contains("100%"));
    }
}
