//! Run one experiment by name and print its full characterization report.
//!
//! Usage: `experiment <baseline|ppm|wavelet|nbody|combined> [--full] [--json]
//! [--obs-dir DIR]`
//!
//! With `--obs-dir DIR`, the run executes with the observability plane on
//! and writes `trace.json` (Chrome trace-event JSON for Perfetto),
//! `proc.txt` (the `/proc`-style counter snapshot) and `meta.json` (perf
//! counters + metrics registry) into `DIR`.
//!
//! Exit codes: `0` clean run, `2` I/O or argument error, `3` the run
//! completed but a simulated process exited unclean.

use std::path::{Path, PathBuf};

use essio::prelude::*;

fn die(msg: String) -> ! {
    eprintln!("experiment: {msg}");
    std::process::exit(2);
}

fn write_file(path: &Path, write: impl FnOnce(&Path) -> std::io::Result<()>) {
    if let Err(e) = write(path) {
        die(format!("cannot write {}: {e}", path.display()));
    }
}

fn main() {
    let mut which = None;
    let mut full = false;
    let mut json = false;
    let mut obs_dir: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--json" => json = true,
            "--obs-dir" => match it.next() {
                Some(dir) if !dir.is_empty() => obs_dir = Some(dir.into()),
                _ => {
                    eprintln!("--obs-dir needs a directory path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: experiment <baseline|ppm|wavelet|nbody|combined> [--full] [--json] [--obs-dir DIR]");
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}; try --help");
                std::process::exit(2);
            }
            name => which = Some(name.to_string()),
        }
    }
    let which = which.unwrap_or_else(|| "baseline".into());
    let kind = ExperimentKind::from_slug(&which).unwrap_or_else(|| {
        eprintln!("unknown experiment {which}");
        std::process::exit(2);
    });
    let e = Experiment::new(kind);
    let e = if full { e } else { e.quick() };
    let e = e.obs(obs_dir.is_some());
    let t0 = std::time::Instant::now();
    let ledger = essio_sim::BodyLedger::current();
    let r = e.run();
    let bodies = essio_sim::BodyLedger::current().since(ledger);
    eprintln!("host time: {:.2?}", t0.elapsed());
    eprintln!(
        "virtual duration: {:.1}s  records: {}  clean exits: {}",
        r.duration_s(),
        r.trace.len(),
        r.all_clean()
    );
    eprintln!(
        "throughput: {} events ({:.0}/s)  {} records ({:.0}/s)  bodies: {} polls, {:.3}s",
        r.perf.events,
        r.perf.events_per_sec(),
        r.perf.records,
        r.perf.records_per_sec(),
        bodies.polls,
        bodies.body_secs
    );
    if let Some(dir) = &obs_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(format!("cannot create {}: {e}", dir.display()));
        }
        let report = r
            .obs
            .as_ref()
            .unwrap_or_else(|| die("obs run produced no report".into()));
        write_file(&dir.join("trace.json"), |p| report.save_chrome_trace(p));
        write_file(&dir.join("proc.txt"), |p| {
            std::fs::write(p, report.proc_text())
        });
        let meta = serde_json::to_string_pretty(report)
            .unwrap_or_else(|e| die(format!("obs report failed to serialize: {e}")));
        write_file(&dir.join("meta.json"), |p| std::fs::write(p, meta));
        eprintln!(
            "obs: {} spans, {} phys cmds -> {}",
            report.spans.len(),
            report.phys.len(),
            dir.display()
        );
    }
    if json {
        let rendered = serde_json::to_string_pretty(&r.summary)
            .unwrap_or_else(|e| die(format!("summary failed to serialize: {e}")));
        println!("{rendered}");
    } else {
        println!("{}", r.table1_row());
        println!("{}", r.summary.report(&which));
    }
    if !r.all_clean() {
        eprintln!("experiment: unclean process exits — conformance failure");
        std::process::exit(3);
    }
}
