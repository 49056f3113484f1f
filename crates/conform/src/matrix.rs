//! The conformance matrix: which configurations are pinned.
//!
//! A cell is one fully-specified run: {experiment kind × seed × fault
//! plan × obs on/off × streamed vs batch}. Cells that differ only in the
//! obs/streamed axes are required to produce the *same* trace and summary
//! (observability and streaming are contractually invisible to the
//! simulated disk), so the matrix doubles as a cross-mode consistency
//! check on every run, golden registry or not.
//!
//! Every cell runs at the quick (2-node) scale: conformance wants many
//! deterministic cells per CI minute, and the quick presets keep paging
//! behaviour (the shape-bearing part) intact.

use essio::prelude::*;
use essio_faults::{DiskFaultConfig, FaultPlan, NetFaultConfig};

/// Deterministic fault-plan presets, shared with the `campaign` binary so
/// campaign results and conformance cells inject identical fault streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultsPreset {
    /// No plan: the run must be bit-identical to a fault-free build.
    None,
    /// A degraded drive (media errors, stuck and slow commands).
    Disk,
    /// A lossy Ethernet segment (drops + duplicates, PVM retransmits).
    Net,
    /// The last node power-fails 30 virtual seconds in.
    Crash,
    /// All of the above at once.
    All,
}

impl FaultsPreset {
    /// All presets, in flag order.
    pub const ALL: [FaultsPreset; 5] = [
        FaultsPreset::None,
        FaultsPreset::Disk,
        FaultsPreset::Net,
        FaultsPreset::Crash,
        FaultsPreset::All,
    ];

    /// The plan this preset injects on a cluster of `nodes` nodes. Seeded
    /// with the same fixed plan seed the `campaign` binary uses, so a
    /// conformance cell replays exactly what a campaign seed saw.
    pub fn plan(self, nodes: u8) -> FaultPlan {
        let base = FaultPlan::none().seed(0xFA17);
        match self {
            FaultsPreset::None => FaultPlan::none(),
            FaultsPreset::Disk => base.disk(DiskFaultConfig::degraded_drive()),
            FaultsPreset::Net => base.net(NetFaultConfig::lossy_segment()),
            FaultsPreset::Crash => base.crash(nodes.saturating_sub(1), 30_000_000),
            FaultsPreset::All => base
                .disk(DiskFaultConfig::degraded_drive())
                .net(NetFaultConfig::lossy_segment())
                .crash(nodes.saturating_sub(1), 30_000_000),
        }
    }

    /// Flag / cell-id spelling.
    pub fn label(self) -> &'static str {
        match self {
            FaultsPreset::None => "none",
            FaultsPreset::Disk => "disk",
            FaultsPreset::Net => "net",
            FaultsPreset::Crash => "crash",
            FaultsPreset::All => "all",
        }
    }

    /// Parse the flag spelling.
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == s)
    }
}

/// One fully-specified conformance run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Which experiment.
    pub kind: ExperimentKind,
    /// Master seed.
    pub seed: u64,
    /// Injected fault plan.
    pub faults: FaultsPreset,
    /// Observability plane on?
    pub obs: bool,
    /// Streamed (`run_streamed`) instead of batch (`run`)?
    pub streamed: bool,
}

impl CellSpec {
    /// A batch, fault-free, obs-off cell — the common baseline variant.
    pub fn plain(kind: ExperimentKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            faults: FaultsPreset::None,
            obs: false,
            streamed: false,
        }
    }

    /// Stable cell identifier: registry key and report label.
    pub fn id(&self) -> String {
        format!(
            "{}-s{}-{}-{}-{}",
            self.kind.slug(),
            self.seed,
            self.faults.label(),
            if self.obs { "obs" } else { "noobs" },
            if self.streamed { "stream" } else { "batch" },
        )
    }

    /// Identifier of the *equivalence group* this cell belongs to. Cells
    /// sharing a group differ only in the obs/streamed axes and must
    /// produce identical trace and summary fingerprints.
    pub fn group_id(&self) -> String {
        format!(
            "{}-s{}-{}",
            self.kind.slug(),
            self.seed,
            self.faults.label()
        )
    }

    /// Build the experiment this cell runs.
    pub fn experiment(&self) -> Experiment {
        let e = Experiment::new(self.kind)
            .quick()
            .seed(self.seed)
            .obs(self.obs);
        let nodes = e.cluster.nodes;
        e.faults(self.faults.plan(nodes))
    }

    /// Are shape invariants checked on this cell? Faults legitimately bend
    /// the shapes (a crashed node truncates its trace), so faulted cells
    /// are pinned by hashes only.
    pub fn shapes_apply(&self) -> bool {
        self.faults == FaultsPreset::None
    }
}

/// A named list of cells.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Preset name (recorded in the registry).
    pub name: String,
    /// The cells, in a stable order.
    pub cells: Vec<CellSpec>,
}

impl Matrix {
    /// The CI matrix: every experiment kind, cross-mode variants on the
    /// combined workload, fault cells on N-body, a second seed — small
    /// enough to run on every push, wide enough that any change to the
    /// simulator, codec, analysis, stream, obs, or fault planes moves at
    /// least one fingerprint.
    pub fn ci() -> Self {
        use ExperimentKind::*;
        let mut cells: Vec<CellSpec> = ExperimentKind::ALL
            .into_iter()
            .map(|k| CellSpec::plain(k, 1))
            .collect();
        // Cross-mode equivalence group on the heaviest workload.
        cells.push(CellSpec {
            streamed: true,
            ..CellSpec::plain(Combined, 1)
        });
        cells.push(CellSpec {
            obs: true,
            ..CellSpec::plain(Combined, 1)
        });
        // Fault planes: a degraded drive (batch + streamed must agree even
        // through retries/relocations) and a node crash.
        let disk = CellSpec {
            faults: FaultsPreset::Disk,
            ..CellSpec::plain(Nbody, 1)
        };
        cells.push(disk);
        cells.push(CellSpec {
            streamed: true,
            ..disk
        });
        cells.push(CellSpec {
            faults: FaultsPreset::Crash,
            ..CellSpec::plain(Nbody, 1)
        });
        // Seed sensitivity: a second seed pins that seeds still diverge.
        cells.push(CellSpec::plain(Nbody, 2));
        Self {
            name: "ci".into(),
            cells,
        }
    }

    /// The full matrix: three seeds per kind, every fault preset on the
    /// N-body workload, cross-mode variants everywhere. A superset of
    /// [`Matrix::ci`] for pre-release sweeps.
    pub fn full() -> Self {
        use ExperimentKind::*;
        let mut cells = Vec::new();
        for kind in ExperimentKind::ALL {
            for seed in 1..=3 {
                cells.push(CellSpec::plain(kind, seed));
            }
            cells.push(CellSpec {
                streamed: true,
                ..CellSpec::plain(kind, 1)
            });
            cells.push(CellSpec {
                obs: true,
                ..CellSpec::plain(kind, 1)
            });
        }
        for faults in [
            FaultsPreset::Disk,
            FaultsPreset::Net,
            FaultsPreset::Crash,
            FaultsPreset::All,
        ] {
            let cell = CellSpec {
                faults,
                ..CellSpec::plain(Nbody, 1)
            };
            cells.push(cell);
            cells.push(CellSpec {
                streamed: true,
                ..cell
            });
        }
        Self {
            name: "full".into(),
            cells,
        }
    }

    /// A caller-assembled matrix (tests use this to stay fast).
    pub fn custom(name: impl Into<String>, cells: Vec<CellSpec>) -> Self {
        Self {
            name: name.into(),
            cells,
        }
    }

    /// Look up a preset by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "ci" => Some(Self::ci()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_stable() {
        for m in [Matrix::ci(), Matrix::full()] {
            let mut ids: Vec<String> = m.cells.iter().map(CellSpec::id).collect();
            let n = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), n, "duplicate cell ids in {}", m.name);
        }
        let c = CellSpec::plain(ExperimentKind::Combined, 1);
        assert_eq!(c.id(), "combined-s1-none-noobs-batch");
        assert_eq!(c.group_id(), "combined-s1-none");
    }

    #[test]
    fn slugs_roundtrip() {
        for k in ExperimentKind::ALL {
            assert_eq!(ExperimentKind::from_slug(k.slug()), Some(k));
        }
        assert_eq!(ExperimentKind::from_slug("nope"), None);
        for p in FaultsPreset::ALL {
            assert_eq!(FaultsPreset::from_label(p.label()), Some(p));
        }
    }

    #[test]
    fn ci_matrix_has_cross_mode_groups() {
        let m = Matrix::ci();
        let combined: Vec<_> = m
            .cells
            .iter()
            .filter(|c| c.group_id() == "combined-s1-none")
            .collect();
        assert!(combined.len() >= 3, "batch + streamed + obs variants");
        assert!(m.cells.iter().any(|c| c.faults == FaultsPreset::Disk));
        assert!(m.cells.iter().any(|c| c.faults == FaultsPreset::Crash));
    }
}
