//! Host-time benchmark of the ESS I/O simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --list
//! ```
//!
//! Runs one named workload through the public `essio` API for about
//! `--seconds`, checks every run, and prints a report whose last line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones (tracing off); with
//! `--trace 1` they are the per-layer ones of the traced run. Build and run
//! it through `perfbench/run.py`, which also runs every workload in one go.

mod check;
mod driver;
mod probes;
mod procfs;
mod report;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --list";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--list"] {
        for w in Workload::ALL {
            println!("{}", w.name());
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(out) => {
            print!("{}", out.text);
            println!(
                "{}",
                report::json_line(
                    out.tally.failed == 0,
                    out.tally.attempted,
                    out.tally.failed,
                    &out.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&strings(&[
            "--workload",
            "trace-replay",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::TraceReplay,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "combined-paper",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "combined-paper",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "combined-paper",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "combined-paper",
                "--seed",
                "1",
                "--seconds",
                "1",
            ],
            &["--workload"],
        ] {
            assert!(parse(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// Share of `core.run_s` that engine-thread plus app-thread CPU must cover.
    const MIN_ATTRIBUTED_SHARE: f64 = 0.9;

    /// On the serial build, engine-thread plus app-thread CPU covers at
    /// least 90% of `core.run_s`, and the traced driver reproduces
    /// `Experiment::run`. Paper-scale runs need an optimised build.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "paper scale: run with cargo test --release"
    )]
    fn engine_and_app_cpu_cover_the_run_and_traced_equals_untraced() {
        for w in [Workload::BaselineSoak, Workload::CombinedPaper] {
            let exp = &w.specs(1)[0];
            let traced = driver::run(exp, false).unwrap();
            let (_, share) = *traced
                .layers
                .iter()
                .find(|(name, _)| *name == "sim.attributed_share")
                .unwrap();
            assert!(
                share >= MIN_ATTRIBUTED_SHARE,
                "{}: engine + app CPU covers {share}",
                w.name()
            );
            assert!(traced.problems.is_empty(), "{:?}", traced.problems);
            let r = exp.clone().run();
            let (id, _) = check::judge(r.kind, &r.canonical_json(), &r.perf, &r.exits, &r.summary);
            assert_eq!(traced.id, id, "{}: traced run differs", w.name());
        }
    }
}
