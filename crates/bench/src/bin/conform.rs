//! `conform` — run the conformance matrix and gate on the golden registry.
//!
//! ```text
//! conform [--matrix ci|full] [--bless] [--registry PATH] [--traces DIR] [--out DIR]
//! ```
//!
//! Runs every cell of the matrix rayon-parallel, fingerprints each run
//! (trace hash, summary hash, pins, checkpoint chain), checks the paper-
//! shape invariants, and enforces cross-mode equivalence (obs on/off and
//! streamed vs batch must not change the simulated disk). Without
//! `--bless` the fingerprints are diffed against the committed registry;
//! any drift bisects down to the first divergent trace record (using the
//! committed per-group golden trace) and writes a report plus a Perfetto
//! trace of the failing cell under `--out`.
//!
//! Exit codes: `0` conformant, `2` I/O or argument error, `3` conformance
//! or shape violation.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use essio_trace::RecordSink;
use rayon::prelude::*;
use serde::Serialize;

use essio_conform::{
    bisect, hex64, run_cell, CellDiff, CellRun, CellSpec, DiffKind, Divergence, GoldenRegistry,
    Matrix, ShapeViolation, TraceHasher,
};

/// Most failing cells to bisect / export artifacts for (keeps a broken
/// tree's CI run bounded; the report lists every diff regardless).
const MAX_ARTIFACT_CELLS: usize = 4;

struct Args {
    matrix: String,
    bless: bool,
    registry: PathBuf,
    traces: PathBuf,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: conform [--matrix ci|full] [--bless] [--registry PATH] [--traces DIR] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        matrix: "ci".into(),
        bless: false,
        registry: PathBuf::from("conform/golden.json"),
        traces: PathBuf::from("conform/traces"),
        out: PathBuf::from("conform/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("conform: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--matrix" => args.matrix = value("--matrix"),
            "--bless" => args.bless = true,
            "--registry" => args.registry = PathBuf::from(value("--registry")),
            "--traces" => args.traces = PathBuf::from(value("--traces")),
            "--out" => args.out = PathBuf::from(value("--out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("conform: unknown flag {other}");
                usage();
            }
        }
    }
    args
}

/// Die with exit 2 on an I/O error.
fn io_or_die<T>(what: &str, r: std::io::Result<T>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("conform: {what}: {e}");
        std::process::exit(2);
    })
}

/// One group's cross-mode disagreement (obs/streamed variants must match).
#[derive(Debug, Clone, Serialize)]
struct CrossModeMismatch {
    group: String,
    baseline_cell: String,
    other_cell: String,
    detail: String,
}

#[derive(Debug, Clone, Serialize)]
struct CellViolations {
    id: String,
    violations: Vec<ShapeViolation>,
}

#[derive(Debug, Clone, Serialize)]
struct DivergenceReport {
    id: String,
    divergence: Divergence,
}

/// A committed golden trace file that no longer matches the registry
/// fingerprint it was blessed with (e.g. a corrupted or stale `.esc`).
#[derive(Debug, Clone, Serialize)]
struct GoldenTraceDrift {
    group: String,
    registry_hash: String,
    stored: String,
}

/// Everything a run produces, for `--out/report.json`.
#[derive(Debug, Clone, Serialize)]
struct Report {
    matrix: String,
    cells: u64,
    conformant: bool,
    diffs: Vec<CellDiff>,
    cross_mode: Vec<CrossModeMismatch>,
    shape_violations: Vec<CellViolations>,
    golden_trace_drift: Vec<GoldenTraceDrift>,
    divergences: Vec<DivergenceReport>,
}

/// Cells sharing a group must produce identical trace and summary
/// fingerprints — observability and streaming are invisible to the disk.
fn cross_mode_check(runs: &[CellRun]) -> Vec<CrossModeMismatch> {
    let mut out = Vec::new();
    let mut seen: Vec<&CellRun> = Vec::new();
    for run in runs {
        let group = run.spec.group_id();
        match seen.iter().find(|r| r.spec.group_id() == group) {
            None => seen.push(run),
            Some(first) => {
                let f = &first.fingerprint;
                let g = &run.fingerprint;
                if f.trace_hash != g.trace_hash
                    || f.summary_hash != g.summary_hash
                    || f.records != g.records
                {
                    out.push(CrossModeMismatch {
                        group,
                        baseline_cell: first.spec.id(),
                        other_cell: run.spec.id(),
                        detail: format!(
                            "trace {} vs {}, summary {} vs {}, records {} vs {}",
                            f.trace_hash,
                            g.trace_hash,
                            f.summary_hash,
                            g.summary_hash,
                            f.records,
                            g.records
                        ),
                    });
                }
            }
        }
    }
    out
}

/// The cell whose trace represents a group on disk: batch, obs off.
fn group_representative(cells: &[CellSpec], group: &str) -> Option<CellSpec> {
    cells
        .iter()
        .filter(|c| c.group_id() == group)
        .min_by_key(|c| (c.streamed, c.obs))
        .copied()
}

fn golden_trace_path(traces: &Path, group: &str) -> PathBuf {
    traces.join(format!("{group}.esc"))
}

/// Bless: write the registry and one columnar golden trace per group.
fn bless(args: &Args, matrix: &Matrix, runs: &[CellRun]) {
    let registry = GoldenRegistry::from_runs(matrix.name.clone(), runs);
    io_or_die("write registry", registry.save(&args.registry));
    io_or_die("create traces dir", std::fs::create_dir_all(&args.traces));

    let mut groups: Vec<String> = runs.iter().map(|r| r.spec.group_id()).collect();
    groups.sort();
    groups.dedup();
    for group in &groups {
        let spec = group_representative(&matrix.cells, group).expect("group has cells");
        let columnar =
            essio_trace::codec::encode_columnar(&essio_conform::materialize_trace(&spec));
        io_or_die(
            "write golden trace",
            std::fs::write(golden_trace_path(&args.traces, group), &columnar),
        );
    }
    println!(
        "blessed {} cells ({} golden traces) into {} and {}",
        runs.len(),
        groups.len(),
        args.registry.display(),
        args.traces.display()
    );
}

/// The committed `.esc` files are pinned state too: each must decode and
/// hash back to the registry fingerprint of its group. A flipped byte in
/// a golden trace is caught here and bisected against a fresh run.
fn check_golden_traces(
    args: &Args,
    matrix: &Matrix,
    registry: &GoldenRegistry,
    divergences: &mut Vec<DivergenceReport>,
) -> Vec<GoldenTraceDrift> {
    let mut groups: Vec<String> = matrix.cells.iter().map(|c| c.group_id()).collect();
    groups.sort();
    groups.dedup();

    let mut drift = Vec::new();
    for group in &groups {
        let spec = group_representative(&matrix.cells, group).expect("group has cells");
        let Some(golden) = registry.get(&spec.id()) else {
            continue; // StaleGolden/MissingGolden is the registry diff's job.
        };
        let path = golden_trace_path(&args.traces, group);
        let (stored, bytes) = match std::fs::read(&path) {
            Err(e) => (format!("unreadable ({e})"), None),
            Ok(bytes) => match essio_trace::codec::decode_columnar(&bytes) {
                Err(e) => (format!("undecodable ({e})"), Some(bytes)),
                Ok(records) => {
                    let mut h = TraceHasher::new();
                    h.observe_all(&records);
                    (hex64(h.value()), Some(bytes))
                }
            },
        };
        if stored == golden.fingerprint.trace_hash {
            continue;
        }
        eprintln!(
            "conform: GOLDEN TRACE drift in {group}: stored {stored}, registry {}",
            golden.fingerprint.trace_hash
        );
        if let Some(bytes) = bytes {
            let current = essio_conform::materialize_trace(&spec);
            if let Some(div) = bisect(&bytes, &current) {
                let rendered = div.render();
                eprint!("conform: {group} golden trace bisected:\n{rendered}");
                io_or_die("create out dir", std::fs::create_dir_all(&args.out));
                io_or_die(
                    "write divergence report",
                    std::fs::write(args.out.join(format!("{group}.divergence.txt")), &rendered),
                );
                divergences.push(DivergenceReport {
                    id: group.clone(),
                    divergence: div,
                });
            }
        }
        drift.push(GoldenTraceDrift {
            group: group.clone(),
            registry_hash: golden.fingerprint.trace_hash.clone(),
            stored,
        });
    }
    drift
}

/// Bisect a trace-mismatch cell against its committed golden trace.
fn bisect_cell(args: &Args, run: &CellRun) -> Option<Divergence> {
    let group = run.spec.group_id();
    let path = golden_trace_path(&args.traces, &group);
    let golden = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "conform: no golden trace for {group} ({}: {e}); divergence bounded by checkpoints only",
                path.display()
            );
            return None;
        }
    };
    let current = essio_conform::materialize_trace(&run.spec);
    bisect(&golden, &current)
}

/// Re-run a failing cell with observability on and export its Perfetto
/// trace next to the divergence report.
fn export_failing_cell_trace(out: &Path, spec: &CellSpec) {
    let obs_spec = CellSpec { obs: true, ..*spec };
    let result = obs_spec.experiment().run();
    if let Some(report) = result.obs {
        let path = out.join(format!("{}.trace.json", spec.id()));
        io_or_die("write Perfetto trace", report.save_chrome_trace(&path));
        eprintln!(
            "conform: wrote Perfetto trace of {} to {}",
            spec.id(),
            path.display()
        );
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(matrix) = Matrix::by_name(&args.matrix) else {
        eprintln!("conform: unknown matrix `{}` (have: ci, full)", args.matrix);
        return ExitCode::from(2);
    };

    let t0 = std::time::Instant::now();
    let runs: Vec<CellRun> = matrix
        .cells
        .clone()
        .into_par_iter()
        .map(|spec| run_cell(&spec))
        .collect();
    eprintln!(
        "conform: ran {} cells in {:.2?} ({} threads)",
        runs.len(),
        t0.elapsed(),
        rayon::max_threads()
    );
    for run in &runs {
        println!(
            "  {:44} {:>8} records  trace {}  summary {}  shapes {}",
            run.spec.id(),
            run.fingerprint.records,
            run.fingerprint.trace_hash,
            run.fingerprint.summary_hash,
            if run.violations.is_empty() {
                "ok"
            } else {
                "FAIL"
            }
        );
    }

    // Checks that hold with or without a registry.
    let cross_mode = cross_mode_check(&runs);
    let shape_violations: Vec<CellViolations> = runs
        .iter()
        .filter(|r| !r.violations.is_empty())
        .map(|r| CellViolations {
            id: r.spec.id(),
            violations: r.violations.clone(),
        })
        .collect();
    for m in &cross_mode {
        eprintln!(
            "conform: CROSS-MODE mismatch in {}: {} vs {}: {}",
            m.group, m.baseline_cell, m.other_cell, m.detail
        );
    }
    for v in &shape_violations {
        for s in &v.violations {
            eprintln!(
                "conform: SHAPE violation in {}: {}: {}",
                v.id, s.check, s.detail
            );
        }
    }

    if args.bless {
        if !cross_mode.is_empty() || !shape_violations.is_empty() {
            eprintln!("conform: refusing to bless a non-conformant tree");
            return ExitCode::from(3);
        }
        bless(&args, &matrix, &runs);
        return ExitCode::SUCCESS;
    }

    let registry = match GoldenRegistry::load(&args.registry) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "conform: cannot load golden registry {}: {e}\n(run `conform --matrix {} --bless` to create it)",
                args.registry.display(),
                args.matrix
            );
            return ExitCode::from(2);
        }
    };
    let diffs = registry.diff(&runs);
    for d in &diffs {
        eprintln!("conform: DRIFT in {}: {:?}: {}", d.id, d.kind, d.detail);
    }

    let mut divergences = Vec::new();
    let golden_trace_drift = check_golden_traces(&args, &matrix, &registry, &mut divergences);

    // Bisect the first few trace mismatches down to a record index.
    io_or_die("create out dir", std::fs::create_dir_all(&args.out));
    let mismatched: Vec<&CellRun> = diffs
        .iter()
        .filter(|d| d.kind == DiffKind::TraceMismatch)
        .filter_map(|d| runs.iter().find(|r| r.spec.id() == d.id))
        .take(MAX_ARTIFACT_CELLS)
        .collect();
    for run in mismatched {
        if let Some(div) = bisect_cell(&args, run) {
            let rendered = div.render();
            eprint!("conform: {} bisected:\n{rendered}", run.spec.id());
            io_or_die(
                "write divergence report",
                std::fs::write(
                    args.out.join(format!("{}.divergence.txt", run.spec.id())),
                    &rendered,
                ),
            );
            divergences.push(DivergenceReport {
                id: run.spec.id(),
                divergence: div,
            });
            export_failing_cell_trace(&args.out, &run.spec);
        }
    }

    let conformant = diffs.is_empty()
        && cross_mode.is_empty()
        && shape_violations.is_empty()
        && golden_trace_drift.is_empty();
    let report = Report {
        matrix: matrix.name.clone(),
        cells: runs.len() as u64,
        conformant,
        diffs,
        cross_mode,
        shape_violations,
        golden_trace_drift,
        divergences,
    };
    let json = serde_json::to_string_pretty(&report).unwrap_or_else(|e| {
        eprintln!("conform: report serialization failed: {e}");
        std::process::exit(2);
    });
    io_or_die(
        "write report",
        std::fs::write(args.out.join("report.json"), json + "\n"),
    );

    if conformant {
        println!(
            "conform: {} cells conformant against {}",
            report.cells,
            args.registry.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "conform: NOT conformant ({} diffs, {} cross-mode, {} shape violations, {} golden-trace drifts); artifacts in {}",
            report.diffs.len(),
            report.cross_mode.len(),
            report.shape_violations.len(),
            report.golden_trace_drift.len(),
            args.out.display()
        );
        ExitCode::from(3)
    }
}
