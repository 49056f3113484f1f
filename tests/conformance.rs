//! End-to-end conformance-harness tests: the golden registry round-trips
//! and stays byte-stable across blesses, a perturbed trace byte is
//! localized to its exact record index by bisection, and the paper-shape
//! invariants hold on all three applications plus the combined workload.

use std::path::PathBuf;

use essio::prelude::ExperimentKind;
use essio_conform::{
    bisect, check_shapes, hex64, materialize_trace, run_cell, CellRun, CellSpec, DiffKind, Fnv64,
    GoldenRegistry, Matrix,
};
use essio_trace::codec::COLUMNAR_FRAME_RECORDS;

/// A unique scratch path under the OS temp dir.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("essio-conform-{}-{name}", std::process::id()))
}

/// A small matrix that still exercises streamed-vs-batch and fault cells.
fn mini_runs() -> Vec<CellRun> {
    let cells = [
        CellSpec::plain(ExperimentKind::Nbody, 1),
        CellSpec {
            streamed: true,
            ..CellSpec::plain(ExperimentKind::Nbody, 1)
        },
        CellSpec::plain(ExperimentKind::Ppm, 1),
        CellSpec {
            faults: essio_conform::FaultsPreset::Disk,
            ..CellSpec::plain(ExperimentKind::Nbody, 1)
        },
    ];
    cells.iter().map(run_cell).collect()
}

#[test]
fn golden_registry_roundtrips_through_disk() {
    let runs = mini_runs();
    let reg = GoldenRegistry::from_runs("mini", &runs);
    let path = scratch("roundtrip.json");
    reg.save(&path).expect("save registry");
    let back = GoldenRegistry::load(&path).expect("load registry");
    assert_eq!(back, reg);
    std::fs::remove_file(&path).ok();
}

#[test]
fn bless_then_rerun_is_clean_and_bless_is_byte_stable() {
    let runs = mini_runs();
    let reg = GoldenRegistry::from_runs("mini", &runs);

    // Two consecutive blesses of the same tree are byte-identical.
    let again = GoldenRegistry::from_runs("mini", &mini_runs());
    assert_eq!(reg.to_json(), again.to_json());

    // A re-run immediately after a bless diffs clean.
    assert!(reg.diff(&runs).is_empty());

    // And every equivalence group agrees across modes: the streamed nbody
    // cell carries the same fingerprint as the batch one.
    let batch = &runs[0].fingerprint;
    let streamed = &runs[1].fingerprint;
    assert_eq!(batch, streamed, "streamed vs batch fingerprints");
}

#[test]
fn perturbed_trace_byte_is_localized_to_its_record() {
    let spec = CellSpec::plain(ExperimentKind::Nbody, 1);
    let records = materialize_trace(&spec);
    let golden = essio_trace::codec::encode_columnar(&records);
    assert!(records.len() > 50, "need a real trace to perturb");

    // Flip one byte of record 37's sector field in the fresh run.
    let victim = 37usize;
    let mut bad = records.clone();
    bad[victim].sector ^= 0x5a << 8;

    let div = bisect(&golden, &bad).expect("perturbed trace must diverge");
    assert_eq!(div.index, victim as u64, "bisection finds the exact record");
    let g = div.golden.as_ref().expect("golden side decodes");
    let c = div.current.as_ref().expect("current side decodes");
    assert_eq!(g.time_us, c.time_us, "only the sector byte was flipped");
    assert_ne!(g.sector, c.sector);

    // Flip one origin byte of the committed form instead. The final frame
    // ends with one origin byte per record, so byte `len - 1 - j` belongs
    // to record `n - 1 - j`; XOR 1 keeps it a valid origin.
    let n = records.len();
    let last_frame = match n % COLUMNAR_FRAME_RECORDS {
        0 => COLUMNAR_FRAME_RECORDS,
        m => m,
    };
    assert!(last_frame > 8, "need a final frame to perturb");
    let mut bad_golden = golden.to_vec();
    bad_golden[golden.len() - 1 - 7] ^= 0x01;
    let div = bisect(&bad_golden, &records).expect("perturbed golden must diverge");
    assert_eq!(div.index, (n - 1 - 7) as u64);
    assert!(div.notes.is_empty(), "the damaged golden still decodes");
    let (g, c) = (div.golden.unwrap(), div.current.unwrap());
    assert_eq!((g.time_us, g.sector), (c.time_us, c.sector));
    assert_ne!(g.origin, c.origin);

    // Identical inputs never diverge.
    assert!(bisect(&golden, &records).is_none());
}

#[test]
fn perturbed_summary_field_moves_only_the_summary_hash() {
    let run = run_cell(&CellSpec::plain(ExperimentKind::Nbody, 1));
    let perturbed = run.summary_json.replacen("\"nodes\":", "\"nodes_x\":", 1);
    assert_ne!(perturbed, run.summary_json);
    assert_ne!(
        hex64(Fnv64::hash(perturbed.as_bytes())),
        run.fingerprint.summary_hash,
        "any summary change moves the summary hash"
    );
}

#[test]
fn paper_shapes_hold_on_all_apps_and_combined() {
    for kind in [
        ExperimentKind::Ppm,
        ExperimentKind::Wavelet,
        ExperimentKind::Nbody,
        ExperimentKind::Combined,
    ] {
        let run = run_cell(&CellSpec::plain(kind, 1));
        assert!(
            run.violations.is_empty(),
            "{kind:?} violates paper shapes: {:?}",
            run.violations
        );
    }
    // The checker itself is not a tautology: an empty summary fails it.
    let empty = essio_trace::analysis::TraceSummary::compute(&[], 1_000_000, 1_000_000);
    assert!(!check_shapes(ExperimentKind::Ppm, &empty).is_empty());
}

#[test]
fn ci_matrix_diff_detects_each_drift_kind() {
    let runs = mini_runs();
    let reg = GoldenRegistry::from_runs("mini", &runs);

    let mut moved = runs.clone();
    moved[0].fingerprint.trace_hash = hex64(0xdead_beef);
    let diffs = reg.diff(&moved);
    assert!(diffs.iter().any(|d| d.kind == DiffKind::TraceMismatch));

    let mut pin = runs.clone();
    pin[2].fingerprint.records += 1;
    let diffs = reg.diff(&pin);
    assert!(diffs.iter().any(|d| d.kind == DiffKind::PinMismatch));

    // Sanity: the shipped CI matrix has unique ids and cross-mode groups.
    let ci = Matrix::ci();
    let mut ids: Vec<String> = ci.cells.iter().map(|c| c.id()).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), ci.cells.len());
}
