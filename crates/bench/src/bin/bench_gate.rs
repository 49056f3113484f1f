//! `bench_gate` — performance-regression gate for CI.
//!
//! ```text
//! bench_gate [--baseline PATH] [--threshold PCT] [--samples N] [--rounds N] [--record]
//! ```
//!
//! The repository's one host-performance harness. `gates()` defines its
//! seven micro-benchmark cells, and this file is their only definition:
//! the event engine's schedule/pop chain and same-instant fan-out, the
//! columnar trace codec's encode and decode, the batch and streamed
//! summaries of `synthetic_trace(100_000)`, and the `update` daemon's
//! flush of a full node cache (1,000 ticks an iteration). It measures each
//! cell and compares the medians against the committed
//! `BENCH_baseline.json`. A bench more than `--threshold` percent
//! (default 25) slower than its baseline fails the gate.
//!
//! Medians are compared like-for-like against the `bench_gate.medians_us`
//! section of the baseline file, written by `--record` with this same
//! harness; a bench missing from it, or a cell in it that no bench
//! measures, is an error, reported before any bench runs. `--record`
//! re-measures and rewrites only the
//! `bench_gate` section, leaving the rest of the file byte-identical.
//!
//! Shared CI hosts are noisy, so each bench is sampled in `--rounds`
//! interleaved rounds and the *best* round median is compared — transient
//! load inflates medians, never deflates them. The before/after table is
//! printed and, when `$GITHUB_STEP_SUMMARY` is set, appended there as
//! GitHub-flavored markdown.
//!
//! Exit codes: `0` within threshold, `2` I/O, argument or baseline error,
//! `3` regression.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use essio_bench::{flush_tick, full_node_cache, synthetic_trace};
use essio_sim::Engine;
use essio_stream::{StreamConfig, StreamSummary};
use essio_trace::analysis::TraceSummary;
use essio_trace::{codec, RecordSink};

const N: u64 = 10_000;
/// `update` ticks per `buffer_cache/flush_few_of_full` iteration.
const TICKS: u32 = 1_000;
/// Run length and disk size the analysis cells summarize
/// `synthetic_trace(100_000)` over.
const DURATION: u64 = 2_000_000_000;
const SECTORS: u32 = 1_000_000;

/// Stand-in for the simulator's `Event` enum, in its size class (64 bytes
/// here), since the heap moves payloads inline while it reorders entries.
#[derive(Clone, Copy)]
struct Payload {
    tag: u64,
    _rest: [u64; 7],
}

impl Payload {
    fn new(tag: u64) -> Self {
        Self { tag, _rest: [0; 7] }
    }
}

fn engine_schedule_pop() -> u64 {
    let mut e: Engine<Payload> = Engine::new();
    for i in 0..64u64 {
        e.schedule_at(i, Payload::new(i));
    }
    let mut n = 0u64;
    while let Some((t, v)) = e.pop() {
        n += 1;
        if n >= N {
            break;
        }
        e.schedule_in(
            v.tag % 13 + 1,
            Payload::new(v.tag.wrapping_mul(0x9E37).wrapping_add(t)),
        );
    }
    n
}

fn engine_same_instant_fifo() -> u64 {
    let mut e: Engine<Payload> = Engine::new();
    for i in 0..N {
        e.schedule_at(5, Payload::new(i));
    }
    let mut n = 0u64;
    while e.pop().is_some() {
        n += 1;
    }
    n
}

/// One gated benchmark: its name in `bench_gate.medians_us` and the
/// workload.
struct Gate {
    name: &'static str,
    run: Box<dyn Fn() -> u64>,
}

fn gates() -> Vec<Gate> {
    let records = Arc::new(synthetic_trace(100_000));
    let columnar = codec::encode_columnar(&records);
    let gate = |name, run| Gate { name, run };
    let (for_summary, for_stream) = (Arc::clone(&records), Arc::clone(&records));
    let cache = RefCell::new(full_node_cache());
    vec![
        gate(
            "engine/schedule_pop_10k",
            Box::new(|| black_box(engine_schedule_pop())),
        ),
        gate(
            "engine/same_instant_fifo_10k",
            Box::new(|| black_box(engine_same_instant_fifo())),
        ),
        gate(
            "trace_codec/encode_columnar",
            Box::new(move || black_box(codec::encode_columnar(black_box(&records))).len() as u64),
        ),
        gate(
            "trace_codec/decode_columnar",
            Box::new(move || {
                black_box(codec::decode_columnar(black_box(&columnar)).expect("valid")).len() as u64
            }),
        ),
        gate(
            "analysis/summary_100k",
            Box::new(move || {
                let summary = TraceSummary::compute(black_box(&for_summary), DURATION, SECTORS);
                black_box(summary).temporal.distinct_sectors
            }),
        ),
        gate(
            "analysis/stream_observe_100k",
            Box::new(move || {
                let mut stream = StreamSummary::new(StreamConfig::paper(SECTORS));
                stream.observe_all(black_box(&for_stream));
                black_box(stream.finalize(DURATION))
                    .temporal
                    .distinct_sectors
            }),
        ),
        gate(
            "buffer_cache/flush_few_of_full",
            Box::new(move || {
                let mut cache = cache.borrow_mut();
                (0..TICKS)
                    .map(|tick| black_box(flush_tick(&mut cache, tick)) as u64)
                    .sum()
            }),
        ),
    ]
}

/// Median per-iteration time in µs over `samples` timed samples, each
/// running enough iterations to cover ~2 ms of wall clock.
fn sample_median_us(run: &dyn Fn() -> u64, samples: usize) -> f64 {
    let t0 = Instant::now();
    black_box(run());
    let once = t0.elapsed().as_secs_f64();
    let iters = ((0.002 / once.max(1e-9)) as usize).clamp(1, 10_000);

    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(run());
            }
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn numeric(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The recorded median (µs) of each named bench, from the
/// `bench_gate.medians_us` section of the parsed baseline. The section must
/// name exactly these benches: `Err` names the first one it lacks, or else
/// the first cell it records that no bench measures (a stale median would
/// otherwise sit in the baseline unchecked).
fn baselines(doc: &serde::Value, names: &[&str]) -> Result<Vec<f64>, String> {
    let medians = doc
        .as_object()
        .and_then(|root| serde::field(root, "bench_gate").ok())
        .and_then(serde::Value::as_object)
        .and_then(|gate| serde::field(gate, "medians_us").ok())
        .and_then(serde::Value::as_object);
    let base = names
        .iter()
        .map(|name| {
            medians
                .and_then(|m| serde::field(m, name).ok())
                .and_then(numeric)
                .ok_or_else(|| format!("{name} missing from bench_gate.medians_us"))
        })
        .collect::<Result<_, _>>()?;
    let stale = medians
        .unwrap_or_default()
        .iter()
        .find(|(cell, _)| !names.contains(&cell.as_str()));
    if let Some((cell, _)) = stale {
        return Err(format!(
            "{cell} in bench_gate.medians_us is measured by no bench"
        ));
    }
    Ok(base)
}

/// Render the `bench_gate` section `--record` commits.
fn record_section(gates: &[Gate], best: &[f64], rounds: usize, samples: usize) -> String {
    let mut s = String::from("  \"bench_gate\": {\n");
    s.push_str(
        "    \"unit\": \"microseconds per iteration: best round median, recorded by `bench_gate --record` on the CI host class\",\n",
    );
    s.push_str(&format!(
        "    \"rounds\": {rounds},\n    \"samples\": {samples},\n"
    ));
    s.push_str("    \"medians_us\": {\n");
    let lines: Vec<String> = gates
        .iter()
        .zip(best)
        .map(|(g, m)| format!("      \"{}\": {m:.0}", g.name))
        .collect();
    s.push_str(&lines.join(",\n"));
    s.push_str("\n    }\n  },\n");
    s
}

/// Replace (or insert, as the first section) the `bench_gate` object in the
/// baseline file, leaving every other byte untouched. The file must be a
/// pretty-printed JSON object (top-level keys indented two spaces), the
/// layout `--record` writes; anything else is an `Err`, as is an edit that
/// would not re-parse.
fn upsert_bench_gate(raw: &str, section: &str) -> Result<String, String> {
    let not_pretty = || "baseline is not a pretty-printed JSON object".to_string();
    let mut out = raw.to_string();
    if let Some(start) = out.find("  \"bench_gate\": {") {
        // Nested objects are indented deeper, so the first `\n  }` after
        // the key closes this section.
        let rest = &out[start..];
        let close = rest
            .find("\n  },")
            .map(|i| i + "\n  },".len())
            .or_else(|| rest.find("\n  }").map(|i| i + "\n  }".len()))
            .ok_or_else(not_pretty)?;
        let mut end = start + close;
        if out[end..].starts_with('\n') {
            end += 1;
        }
        out.replace_range(start..end, "");
    }
    let body = out.trim_start();
    if !body.starts_with("{\n") {
        return Err(not_pretty());
    }
    out.insert_str(out.len() - body.len() + 2, section);
    serde_json::from_str::<serde::Value>(&out)
        .map_err(|e| format!("recorded baseline would not re-parse: {e}"))?;
    Ok(out)
}

fn die(msg: String) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut baseline_path = String::from("BENCH_baseline.json");
    let mut threshold_pct = 25.0f64;
    let mut samples = 15usize;
    let mut rounds = 3usize;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| die(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--baseline" => baseline_path = value("--baseline"),
            "--threshold" => {
                threshold_pct = value("--threshold")
                    .parse()
                    .unwrap_or_else(|_| die("--threshold needs a number".into()))
            }
            "--samples" => {
                samples = value("--samples")
                    .parse()
                    .unwrap_or_else(|_| die("--samples needs a number".into()))
            }
            "--rounds" => {
                rounds = value("--rounds")
                    .parse()
                    .unwrap_or_else(|_| die("--rounds needs a number".into()))
            }
            "--record" => record = true,
            other => die(format!(
                "unknown flag {other} (usage: bench_gate [--baseline PATH] [--threshold PCT] [--samples N] [--rounds N] [--record])"
            )),
        }
    }
    let samples = samples.max(3);
    let rounds = rounds.max(1);

    let raw = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| die(format!("cannot read {baseline_path}: {e}")));
    let doc: serde::Value =
        serde_json::from_str(&raw).unwrap_or_else(|e| die(format!("bad baseline JSON: {e}")));
    if doc.as_object().is_none() {
        die(format!("{baseline_path}: baseline is not a JSON object"));
    }

    let gates = gates();
    let names = || gates.iter().map(|g| g.name).collect::<Vec<&str>>();
    // Fail on a file `--record` cannot edit, or on a baseline missing a
    // gated bench or keeping a stale cell, before spending the rounds.
    let checked = if record {
        let placeholder = record_section(&gates, &vec![0.0; gates.len()], rounds, samples);
        upsert_bench_gate(&raw, &placeholder).map(drop)
    } else {
        baselines(&doc, &names()).map(drop)
    };
    if let Err(e) = checked {
        die(format!("{baseline_path}: {e}"));
    }
    // Interleave rounds across all benches so a transient host stall hits
    // every bench's round equally, then keep each bench's best round.
    let mut best: Vec<f64> = vec![f64::INFINITY; gates.len()];
    for round in 0..rounds {
        for (i, g) in gates.iter().enumerate() {
            let med = sample_median_us(&*g.run, samples);
            if med < best[i] {
                best[i] = med;
            }
            eprintln!("bench_gate: round {round} {} {med:.0}µs", g.name);
        }
    }

    if record {
        let updated = upsert_bench_gate(&raw, &record_section(&gates, &best, rounds, samples))
            .unwrap_or_else(|e| die(format!("{baseline_path}: {e}")));
        std::fs::write(&baseline_path, &updated)
            .unwrap_or_else(|e| die(format!("cannot write {baseline_path}: {e}")));
        println!(
            "bench_gate: recorded {} medians into {baseline_path}",
            gates.len()
        );
        return;
    }

    // Values are kept only from now on (the check above freed what it
    // allocated): allocating before the rounds moves the heap layout the
    // codec benches run in, and with it their medians.
    let base = baselines(&doc, &names()).unwrap_or_else(|e| die(format!("{baseline_path}: {e}")));
    let mut table = String::from(
        "| bench | baseline µs | current µs | Δ | status |\n|---|---:|---:|---:|---|\n",
    );
    let mut regressions = 0usize;
    for ((g, med), base) in gates.iter().zip(&best).zip(base) {
        let delta_pct = (med - base) / base * 100.0;
        let ok = delta_pct <= threshold_pct;
        if !ok {
            regressions += 1;
        }
        table.push_str(&format!(
            "| {} | {base:.0} | {med:.0} | {delta_pct:+.1}% | {} |\n",
            g.name,
            if ok { "ok" } else { "**REGRESSION**" }
        ));
    }
    println!("{table}");
    println!(
        "bench_gate: threshold +{threshold_pct:.0}%, {} benches, {regressions} regressions",
        gates.len()
    );

    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        let md = format!(
            "## Bench regression gate\n\nThreshold: +{threshold_pct:.0}% vs `{baseline_path}` (best median of {rounds} rounds × {samples} samples).\n\n{table}\n"
        );
        let res = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&summary)
            .and_then(|mut f| f.write_all(md.as_bytes()));
        if let Err(e) = res {
            eprintln!("bench_gate: cannot append to GITHUB_STEP_SUMMARY: {e}");
        }
    }

    if regressions > 0 {
        std::process::exit(3);
    }
}

#[cfg(test)]
mod tests {
    use super::{baselines, gates, upsert_bench_gate};
    use proptest::prelude::*;

    const SECTION: &str =
        "  \"bench_gate\": {\n    \"medians_us\": {\n      \"x\": 1\n    }\n  },\n";

    #[test]
    fn upsert_inserts_then_replaces_leaving_other_bytes_alone() {
        let raw = "{\n  \"schema\": \"s\",\n  \"study\": {\n    \"a\": 1\n  }\n}\n";
        let inserted = upsert_bench_gate(raw, SECTION).unwrap();
        assert_eq!(inserted, format!("{{\n{SECTION}{}", &raw[2..]));
        let replaced = upsert_bench_gate(&inserted, &SECTION.replace('1', "2")).unwrap();
        assert_eq!(replaced, inserted.replace("\"x\": 1", "\"x\": 2"));
    }

    #[test]
    fn a_bench_missing_from_the_gate_section_is_named() {
        let doc: serde::Value = serde_json::from_str(
            "{\"bench_gate\": {\"medians_us\": {\"a\": 5, \"b\": 7.5}}, \"legacy\": {\"c\": 1}}",
        )
        .unwrap();
        assert_eq!(baselines(&doc, &["b", "a"]), Ok(vec![7.5, 5.0]));
        let err = baselines(&doc, &["a", "c"]).unwrap_err();
        assert!(err.contains("c missing"), "{err}");
        let empty: serde::Value = serde_json::from_str("{}").unwrap();
        assert!(baselines(&empty, &["a"]).unwrap_err().contains("a missing"));
    }

    #[test]
    fn a_cell_no_bench_measures_is_named() {
        let doc: serde::Value =
            serde_json::from_str("{\"bench_gate\": {\"medians_us\": {\"a\": 5, \"gone\": 3}}}")
                .unwrap();
        let err = baselines(&doc, &["a"]).unwrap_err();
        assert!(err.contains("gone in bench_gate.medians_us"), "{err}");
        assert_eq!(baselines(&doc, &["gone", "a"]), Ok(vec![3.0, 5.0]));
    }

    #[test]
    fn upsert_rejects_what_it_cannot_edit_instead_of_panicking() {
        for raw in ["{\"a\":1}\n", "[1, 2]\n", "\"text\"", "7", "{\n}\n"] {
            assert!(upsert_bench_gate(raw, SECTION).is_err(), "{raw:?}");
        }
    }

    const BASELINE: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_baseline.json"
    ));

    /// Bytes JSON is made of, so arbitrary text reaches past the first token.
    const JSON_BYTES: &[u8] = b"{}[]\":,0123456789-+.eE \ntruefalsnull\\u";

    /// Text of up to 512 characters, about half drawn from [`JSON_BYTES`].
    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec((any::<bool>(), any::<u8>()), 0..512).prop_map(|v| {
            let bytes: Vec<u8> = v
                .into_iter()
                .map(|(json, b)| {
                    if json {
                        JSON_BYTES[b as usize % JSON_BYTES.len()]
                    } else {
                        b
                    }
                })
                .collect();
            String::from_utf8_lossy(&bytes).into_owned()
        })
    }

    /// Apply 1–4 edits `(kind, position, byte)` to `data`: kind 0 flips the
    /// bits of `byte` at the position, 1 overwrites it, 2 truncates there.
    fn mutate(mut data: Vec<u8>, edits: &[(u8, u32, u8)]) -> String {
        for &(kind, at, byte) in edits {
            if data.is_empty() {
                break;
            }
            let i = at as usize % data.len();
            match kind {
                0 => data[i] ^= byte,
                1 => data[i] = byte,
                _ => data.truncate(i),
            }
        }
        String::from_utf8_lossy(&data).into_owned()
    }

    /// What `main` does with a baseline file's text before measuring:
    /// parse it, look up the gate's medians, and plan the `--record` edit.
    fn read_baseline(raw: &str) {
        let _ = upsert_bench_gate(raw, SECTION);
        if let Ok(doc) = serde_json::from_str::<serde::Value>(raw) {
            let _ = baselines(&doc, &["engine/schedule_pop_10k", "x"]);
        }
    }

    #[test]
    fn every_cell_runs_and_repeats_its_answer() {
        for g in gates() {
            let first = (g.run)();
            assert_ne!(first, 0, "{} counted nothing", g.name);
            assert_eq!((g.run)(), first, "{} changed its answer", g.name);
        }
    }

    #[test]
    fn the_committed_baseline_reads() {
        let doc: serde::Value = serde_json::from_str(BASELINE).unwrap();
        let names: Vec<&str> = gates().iter().map(|g| g.name).collect();
        baselines(&doc, &names).unwrap();
        assert!(upsert_bench_gate(BASELINE, SECTION).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn baseline_reading_never_panics_on_arbitrary_text(s in text()) {
            read_baseline(&s);
        }

        #[test]
        fn baseline_reading_never_panics_on_a_mutated_baseline(
            edits in prop::collection::vec((0u8..3, any::<u32>(), 1u8..=255), 1..=4),
        ) {
            read_baseline(&mutate(BASELINE.as_bytes().to_vec(), &edits));
        }
    }
}
