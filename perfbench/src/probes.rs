//! Layer probes: each times calls into one layer's public functions from
//! outside, on the workload's own trace or at the workload configuration's
//! defaults, and records per-call medians.

use std::hint::black_box;
use std::time::Instant;

use essio_apps::nbody::{tree, NbodyConfig};
use essio_apps::ppm::{solver, PpmConfig};
use essio_apps::wavelet::{transform, WaveletConfig};
use essio_conform::TraceHasher;
use essio_disk::{BlockRequest, IdeDriver, SchedPolicy, SubmitOutcome, TimingModel};
use essio_obs::ObsReport;
use essio_sim::{SimRng, SimTime};
use essio_trace::analysis::TraceSummary;
use essio_trace::codec::{decode_columnar, encode_columnar, ChunkedDecoder, DecodeError};
use essio_trace::sink::Tee;
use essio_trace::{RecordSink, TraceRecord};

use crate::driver::{stream_summary, total_sectors};
use crate::report::Samples;

/// Records per `ChunkedDecoder` chunk in the replay legs.
const CHUNK_RECORDS: usize = 4096;

/// Time `f` at least `min` times and until `secs` have passed; returns
/// the seconds of each call.
fn timed_reps(min: usize, secs: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// App numerics, one call at a time, at the `*Config` defaults the
/// workloads run: a PPM grid step, a wavelet 2-D analysis, an N-body
/// leapfrog step.
pub fn app_kernels(seed: u64, s: &mut Samples) {
    let ppm = PpmConfig::default();
    let mut grid = solver::Grid::sod(ppm.nx, ppm.ny);
    for _ in 0..ppm.steps {
        let dt = grid.cfl_dt();
        let t = Instant::now();
        grid.step(dt, solver::Boundary::Reflective);
        s.push("apps.ppm.step_us", t.elapsed().as_secs_f64() * 1e6);
    }
    black_box(&grid);

    let wav = WaveletConfig::default();
    let raw = essio::workloads::synthetic_landsat(essio::workloads::IMAGE_SIDE, seed);
    let image = transform::Image::from_bytes(wav.size, &raw[..wav.size * wav.size]);
    for _ in 0..wav.levels * 8 {
        let mut img = image.clone();
        let t = Instant::now();
        transform::analyze_2d(&mut img, wav.levels, wav.filter);
        s.push("apps.wavelet.analyze2d_us", t.elapsed().as_secs_f64() * 1e6);
        black_box(&img);
    }

    let nb = NbodyConfig::default();
    let mut bodies = tree::plummer(nb.particles, &mut SimRng::new(nb.seed));
    for _ in 0..nb.steps {
        let t = Instant::now();
        black_box(tree::leapfrog_step(&mut bodies, nb.dt, nb.theta));
        s.push("apps.nbody.step_us", t.elapsed().as_secs_f64() * 1e6);
    }
}

/// What one replay round computed, for the workload's checks.
pub struct Legs {
    /// Stream summary finalized after the chunked leg.
    pub stream: TraceSummary,
    /// Batch summary of the batch-decoded trace.
    pub batch: TraceSummary,
    /// Fingerprint of the chunked-decoded records.
    pub hash: u64,
    /// Records the fingerprint covered.
    pub records: u64,
}

/// The trace-replay workload's two legs, as a user runs them: a chunked
/// decode into a tee of `StreamSummary` and `TraceHasher`, then a batch
/// decode and `TraceSummary::compute`.
pub fn replay_round(encoded: &[u8], duration: SimTime) -> Result<Legs, DecodeError> {
    let mut dec = ChunkedDecoder::new(encoded, CHUNK_RECORDS);
    let mut chunk = Vec::with_capacity(CHUNK_RECORDS);
    let mut tee = Tee(stream_summary(), TraceHasher::new());
    while dec.next_chunk(&mut chunk)? > 0 {
        tee.observe_all(&chunk);
    }
    let stream = tee.0.finalize(duration);
    let decoded = decode_columnar(encoded)?;
    let batch = TraceSummary::compute(&decoded, duration, total_sectors());
    Ok(Legs {
        stream,
        batch,
        hash: tee.1.value(),
        records: tee.1.records(),
    })
}

/// [`replay_round`] with every layer call timed: chunked decode, stream
/// observe and fingerprint per record, batch decode per record, and the
/// batch summary.
pub fn replay_round_traced(
    encoded: &[u8],
    duration: SimTime,
    s: &mut Samples,
) -> Result<Legs, DecodeError> {
    let (mut chunked_s, mut observe_s, mut hash_s) = (0.0, 0.0, 0.0);
    let mut dec = ChunkedDecoder::new(encoded, CHUNK_RECORDS);
    let mut chunk = Vec::with_capacity(CHUNK_RECORDS);
    let mut summary = stream_summary();
    let mut hasher = TraceHasher::new();
    loop {
        let t = Instant::now();
        let n = dec.next_chunk(&mut chunk)?;
        chunked_s += t.elapsed().as_secs_f64();
        if n == 0 {
            break;
        }
        let t = Instant::now();
        summary.observe_all(&chunk);
        observe_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        hasher.observe_all(&chunk);
        hash_s += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let stream = summary.finalize(duration);
    observe_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let decoded = decode_columnar(encoded)?;
    let decode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let batch = TraceSummary::compute(&decoded, duration, total_sectors());
    s.push("trace.summary_s", t.elapsed().as_secs_f64());

    let per_record = 1e9 / hasher.records().max(1) as f64;
    s.push("trace.chunked_decode_ns_per_record", chunked_s * per_record);
    s.push("stream.observe_ns_per_record", observe_s * per_record);
    s.push("conform.fingerprint_ns_per_record", hash_s * per_record);
    s.push("trace.decode_ns_per_record", decode_s * per_record);
    Ok(Legs {
        stream,
        batch,
        hash: hasher.value(),
        records: hasher.records(),
    })
}

/// Problems of a replay round against the source trace's fingerprint and
/// batch summary (as JSON).
pub fn legs_problems(legs: &Legs, hash: u64, records: u64, summary_json: &str) -> Vec<String> {
    let json = |s: &TraceSummary| serde_json::to_string(s).expect("summary serializes");
    let mut problems = Vec::new();
    if (legs.hash, legs.records) != (hash, records) {
        problems.push(format!(
            "decoded fingerprint {:016x} over {} records, source {hash:016x} over {records}",
            legs.hash, legs.records
        ));
    }
    if json(&legs.stream) != summary_json {
        problems.push("finalized stream summary differs from the batch summary".into());
    }
    if json(&legs.batch) != summary_json {
        problems.push("batch summary of the decoded trace differs from the source's".into());
    }
    problems
}

/// Fingerprint of a trace, as [`TraceHasher`] computes it.
pub fn fingerprint(trace: &[TraceRecord]) -> (u64, u64) {
    let mut h = TraceHasher::new();
    h.observe_all(trace);
    (h.value(), h.records())
}

/// Columnar encoding of the trace, per record.
pub fn encode_probe(trace: &[TraceRecord], s: &mut Samples) {
    let per_record = 1e9 / trace.len().max(1) as f64;
    for secs in timed_reps(3, 0.2, || {
        black_box(encode_columnar(trace));
    }) {
        s.push("trace.encode_ns_per_record", secs * per_record);
    }
}

/// Every codec, stream and fingerprint layer on the workload's own trace:
/// encode, then traced replay rounds (each checked against the trace).
pub fn trace_probe(
    trace: &[TraceRecord],
    duration: SimTime,
    s: &mut Samples,
) -> Result<Vec<String>, String> {
    encode_probe(trace, s);
    let encoded = encode_columnar(trace);
    let (hash, records) = fingerprint(trace);
    let summary = TraceSummary::compute(trace, duration, total_sectors());
    let summary_json = serde_json::to_string(&summary).expect("summary serializes");
    let mut problems = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed().as_secs_f64() < 0.3 {
        let legs = replay_round_traced(&encoded, duration, s)
            .map_err(|e| format!("trace probe: the encoded trace did not decode: {e:?}"))?;
        problems.extend(legs_problems(&legs, hash, records, &summary_json));
        rounds += 1;
    }
    disk_probe(trace, s);
    Ok(problems)
}

/// The trace pushed through a fresh `IdeDriver` per node, in timestamp
/// order: each record is submitted at its dispatch time, and commands
/// complete as the replayed clock passes their deadlines.
pub fn disk_probe(trace: &[TraceRecord], s: &mut Samples) {
    let mut per_node: Vec<Vec<TraceRecord>> = Vec::new();
    for r in trace {
        let n = r.node as usize;
        if per_node.len() <= n {
            per_node.resize_with(n + 1, Vec::new);
        }
        per_node[n].push(*r);
    }
    let per_req = 1e9 / trace.len().max(1) as f64;
    for secs in timed_reps(3, 0.2, || {
        black_box(replay_disk(&per_node));
    }) {
        s.push("disk.replay_ns_per_req", secs * per_req);
    }
}

fn replay_disk(per_node: &[Vec<TraceRecord>]) -> u64 {
    let mut completed = 0u64;
    for (node, records) in per_node.iter().enumerate() {
        let mut drv = IdeDriver::new(
            node as u8,
            TimingModel::beowulf_ide(),
            SchedPolicy::Elevator,
            records.len().max(1),
        );
        let mut due: Option<SimTime> = None;
        for (token, r) in records.iter().enumerate() {
            while let Some(at) = due.filter(|&at| at <= r.ts) {
                due = drv.on_complete(at).1;
                completed += 1;
            }
            let req = BlockRequest {
                sector: r.sector,
                nsectors: r.nsectors,
                op: r.op,
                origin: r.origin,
                token: token as u64,
                relocated: false,
            };
            if let SubmitOutcome::Dispatched { completes_at } = drv.submit(r.ts, req) {
                due = Some(completes_at);
            }
        }
        while let Some(at) = due {
            due = drv.on_complete(at).1;
            completed += 1;
        }
    }
    completed
}

/// Render an obs report the way `wavelet-stream` does, timing each
/// exporter. Returns the problems (an empty report is one).
pub fn obs_exports(report: &ObsReport, s: &mut Samples) -> Vec<String> {
    let t = Instant::now();
    let chrome = report.chrome_trace();
    s.push("obs.chrome_export_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let proc_text = report.proc_text();
    s.push("obs.proc_export_s", t.elapsed().as_secs_f64());
    s.push("obs.export_bytes", (chrome.len() + proc_text.len()) as f64);
    s.push("obs.spans", report.spans.len() as f64);
    if report.spans.is_empty() || proc_text.is_empty() {
        vec!["obs report has no spans or no /proc text".into()]
    } else {
        Vec::new()
    }
}
