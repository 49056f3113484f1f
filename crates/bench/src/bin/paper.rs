//! Regenerate the paper's figures and tables in one run, writing their
//! data files to `target/paper/` and printing each plot or report with the
//! paper's reading of it.
//!
//! Usage: `paper [--full] [--only fig1..fig8|table1]...` (quick 2-node
//! scale by default). Without `--only` it regenerates every artifact, runs
//! all five experiments once, and also fits and validates the workload
//! model; `--only` (repeatable) runs just the experiments the named
//! artifacts are drawn from.
//!
//! Exit codes: `0` success, `2` I/O or argument error, `3` the fitted
//! workload model failed its own validation (conformance failure).

use std::fs;
use std::path::{Path, PathBuf};

use essio::figures::Artifact;
use essio::prelude::*;
use essio_bench::Cli;

/// Write one output file; a data file that silently failed to land would
/// make the regenerated figures lie, so bail with the path and cause.
fn write_file(path: &Path, contents: &str) {
    if let Err(e) = fs::write(path, contents) {
        eprintln!("paper: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}

fn main() {
    let cli = Cli::parse();
    let out_dir = PathBuf::from("target/paper");
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("paper: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let everything = cli.only.is_empty();
    let artifacts = if everything {
        Artifact::ALL.to_vec()
    } else {
        cli.only.clone()
    };

    let runs: Vec<ExperimentResult> = ExperimentKind::ALL
        .into_iter()
        .filter(|k| artifacts.iter().any(|a| a.kinds().contains(k)))
        .map(|k| cli.run(k))
        .collect();
    for artifact in &artifacts {
        let out = artifact.render(&runs);
        write_file(&out_dir.join(&out.file), &out.data);
        println!("{}", out.text);
    }

    if everything {
        // The paper's "next step": fit + validate the workload parameter set.
        let combined = runs.last().expect("every kind ran");
        let model = WorkloadModel::fit(&combined.trace, combined.duration);
        let synthetic = model.synthesize(1, combined.duration_s());
        let v = model.validate(&synthetic, combined.duration);
        println!(
            "workload model: rate {:.2}/s, reads {:.0}%, validation acceptable={} (rate err {:.1}%, read-frac err {:.3})",
            model.rate_per_s,
            model.read_fraction * 100.0,
            v.acceptable(),
            v.rate_rel_err * 100.0,
            v.read_frac_err
        );
        write_file(&out_dir.join("workload_model.json"), &model.to_json());
        if !v.acceptable() {
            eprintln!("paper: workload model failed validation — conformance failure");
            std::process::exit(3);
        }
    }
    println!("TSV data written to {}", out_dir.display());
}
