//! Reproducibility and data-pipeline integration: identical seeds give
//! bit-identical traces, traces survive the codecs, and the workload model
//! round-trips through fit → synthesize → validate on real simulation
//! output.

use ess_io_study::prelude::*;
use ess_io_study::trace::codec;

#[test]
fn experiments_are_bit_deterministic_across_runs() {
    let a = Experiment::combined().quick().seed(41).run();
    let b = Experiment::combined().quick().seed(41).run();
    assert_eq!(a.trace.len(), b.trace.len());
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.duration, b.duration);
    // And seeds matter.
    let c = Experiment::combined().quick().seed(42).run();
    assert_ne!(a.trace, c.trace);
}

#[test]
fn real_trace_roundtrips_through_every_codec() {
    let r = Experiment::wavelet().quick().seed(43).run();
    assert!(!r.trace.is_empty());

    // One trace format, read back whole and a frame at a time.
    let encoded = codec::encode_columnar(&r.trace);
    assert_eq!(
        codec::decode_columnar(&encoded).expect("own format"),
        r.trace
    );
    let mut streamed = Vec::new();
    let n = codec::decode_chunked(&encoded[..], &mut streamed).expect("own format");
    assert_eq!(n, r.trace.len() as u64);
    assert_eq!(streamed, r.trace);
}

#[test]
fn summary_recomputed_from_decoded_trace_matches() {
    let r = Experiment::nbody().quick().seed(44).run();
    let encoded = codec::encode_columnar(&r.trace);
    let decoded = codec::decode_columnar(&encoded).expect("roundtrip");
    let re = TraceSummary::compute(&decoded, r.duration, 999_936);
    assert_eq!(re.rw.reads, r.summary.rw.reads);
    assert_eq!(re.rw.writes, r.summary.rw.writes);
    assert_eq!(re.sizes.total(), r.summary.sizes.total());
    assert_eq!(re.spatial.total(), r.summary.spatial.total());
}

#[test]
fn workload_model_fits_and_validates_on_simulation_output() {
    let r = Experiment::combined().quick().seed(45).run();
    let model = WorkloadModel::fit(&r.trace, r.duration);
    assert!(model.rate_per_s > 0.0);
    // Self-validation: synthetic replay matches the fitted marginals.
    let synthetic = model.synthesize(7, r.duration_s());
    let v = model.validate(&synthetic, r.duration);
    assert!(v.acceptable(), "{v:?}");
    // The baseline's model is very different from the combined one.
    let base = Experiment::baseline()
        .quick()
        .duration_secs(300)
        .seed(45)
        .run();
    let cross = model.validate(&base.trace, base.duration);
    assert!(
        !cross.acceptable(),
        "baseline must not validate against combined: {cross:?}"
    );
}

#[test]
fn figure_data_is_consistent_with_the_trace() {
    let r = Experiment::ppm().quick().seed(46).run();
    let f2 = figures::fig2(&r);
    let node0 = r.node_trace(0);
    assert_eq!(f2.points.len(), node0.len(), "one point per node-0 record");
    let max_plot = f2.points.iter().map(|p| p.1).fold(0.0, f64::max);
    let max_trace = node0.iter().map(|t| t.kib()).fold(0.0, f64::max);
    assert_eq!(max_plot, max_trace);
    // TSV export parses back to the same number of rows.
    let tsv = f2.to_tsv();
    assert_eq!(tsv.lines().count(), f2.points.len() + 1);
}

#[test]
fn trace_rings_do_not_drop_under_normal_collection() {
    let r = Experiment::wavelet().quick().seed(47).run();
    // The experiment drains rings every 5 virtual seconds; capacity is
    // ample, so the paper-style collection loses nothing.
    assert!(!r.trace.is_empty());
    // (drop counters are per-kernel; the Experiment API would have lost
    // records silently only if the ring overflowed between drains — the
    // cluster asserts that by summing `trace_dropped` internally in tests
    // below at the Beowulf level.)
    let mut bw = Beowulf::new(BeowulfConfig {
        nodes: 1,
        ..Default::default()
    });
    bw.run_until(120_000_000);
    assert_eq!(bw.trace_dropped(), 0);
}
