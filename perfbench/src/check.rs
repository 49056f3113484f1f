//! Correctness checks on every run, and the deterministic statistics block.
//!
//! A benchmark run is only worth timing if the simulation it timed is the
//! right one: every process exits cleanly, the paper shapes hold, and the
//! canonical run hash, event count and record count repeat exactly across
//! every run of a workload in the session, traced or not.

use essio::cluster::ProcExit;
use essio::experiment::{ExperimentKind, RunPerf};
use essio_conform::{check_shapes, Fnv64};
use essio_sim::SimTime;
use essio_trace::analysis::{RwStats, TraceSummary};

/// What must repeat exactly across runs of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunId {
    /// FNV-1a 64 of the run's canonical JSON.
    pub hash: u64,
    /// Engine events delivered.
    pub events: u64,
    /// Trace records drained.
    pub records: u64,
}

/// One problem per process that did not finish with status 0.
pub fn exit_problems(exits: &[ProcExit]) -> Vec<String> {
    exits
        .iter()
        .filter(|e| e.code != 0)
        .map(|e| format!("{}@{} finished with status {}", e.name, e.node, e.code))
        .collect()
}

/// Identity and problems of one finished paper-scale run: unclean exits
/// and paper-shape violations.
pub fn judge(
    kind: ExperimentKind,
    canonical_json: &str,
    perf: &RunPerf,
    exits: &[ProcExit],
    summary: &TraceSummary,
) -> (RunId, Vec<String>) {
    let id = RunId {
        hash: Fnv64::hash(canonical_json.as_bytes()),
        events: perf.events,
        records: perf.records,
    };
    let mut problems = exit_problems(exits);
    problems.extend(
        check_shapes(kind, summary)
            .into_iter()
            .map(|v| format!("shape {}: {}", v.check, v.detail)),
    );
    (id, problems)
}

/// Operations attempted and failed in one benchmark run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Checked operations (set-ups, samples, probes).
    pub attempted: u64,
    /// Operations with at least one problem.
    pub failed: u64,
    /// Every problem seen, prefixed with its operation.
    pub notes: Vec<String>,
    reference: Option<Vec<RunId>>,
}

impl Tally {
    /// Count one operation; any problem fails it.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.notes
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    /// A problem if `ids` differ from the first identities this run saw.
    pub fn same_as_before(&mut self, ids: &[RunId]) -> Vec<String> {
        match &self.reference {
            None => {
                self.reference = Some(ids.to_vec());
                Vec::new()
            }
            Some(r) if r == ids => Vec::new(),
            Some(r) => vec![format!("run identity {ids:?} differs from {r:?}")],
        }
    }
}

/// Per-disk averages, as Table 1 reports them.
fn per_disk(rw: &RwStats, nodes: u8) -> RwStats {
    let n = u64::from(nodes.max(1));
    RwStats {
        reads: rw.reads / n,
        writes: rw.writes / n,
        total: rw.total / n,
        read_bytes: rw.read_bytes / n,
        write_bytes: rw.write_bytes / n,
        ..*rw
    }
}

/// The simulator's error against the paper's Table 1, where the paper
/// gives a number for this experiment.
fn paper_error(kind: ExperimentKind, disk: &RwStats) -> String {
    match kind {
        ExperimentKind::Baseline => format!(
            "vs paper Table 1 baseline (0.9 req/s/disk, 0% reads): \
             rate error {:+.1}%, reads error {:+.1} points",
            (disk.req_per_sec() - 0.9) / 0.9 * 100.0,
            disk.read_pct(),
        ),
        ExperimentKind::Wavelet => format!(
            "vs paper Table 1 wavelet (49% reads): reads error {:+.1} points",
            disk.read_pct() - 49.0
        ),
        _ => format!(
            "paper Table 1 has no legible {} figures: no reference value, no error",
            kind.name()
        ),
    }
}

/// The deterministic statistics of one run: virtual seconds, events,
/// records, the Table-1 row and its error against the paper.
pub fn sim_block(
    kind: ExperimentKind,
    nodes: u8,
    duration: SimTime,
    id: &RunId,
    summary: &TraceSummary,
) -> String {
    let disk = per_disk(&summary.rw, nodes);
    format!(
        "  {}: {:.3} virtual s, {} events, {} records, run hash {:016x}\n  \
         Table 1 row (per disk): {}\n  {}\n",
        kind.name(),
        duration as f64 / 1e6,
        id.events,
        id.records,
        id.hash,
        disk.table_row(kind.name()).trim_end(),
        paper_error(kind, &disk),
    )
}
