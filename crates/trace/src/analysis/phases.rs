//! Activity-phase segmentation.
//!
//! The paper reads its request-size figures as *narratives*: a startup
//! paging burst, a data-ingest spike, a computation lull, an output burst
//! at the end (§4.2–4.3). This module recovers that narrative automatically
//! from a trace: the timeline is binned, each bin classified by its
//! dominant activity, and adjacent bins of the same character merged into
//! [`Phase`]s. `paper --only fig3` and `EXPERIMENTS.md` use it to locate the
//! wavelet's spike and lull without eyeballing a plot.

use serde::Serialize;

use crate::record::{Op, TraceRecord};

/// The character of a stretch of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PhaseKind {
    /// At or below the background (daemon) request rate.
    Quiet,
    /// Dominated by 4 KB paging transfers.
    Paging,
    /// Dominated by large (≥ 8 KB) reads — streaming data ingest.
    StreamingRead,
    /// Dominated by writes — output or flush activity.
    WriteBurst,
    /// Elevated but mixed activity.
    Busy,
}

impl PhaseKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Quiet => "quiet",
            PhaseKind::Paging => "paging",
            PhaseKind::StreamingRead => "streaming-read",
            PhaseKind::WriteBurst => "write-burst",
            PhaseKind::Busy => "busy",
        }
    }
}

/// A maximal run of same-character bins.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Phase {
    /// Phase start, seconds.
    pub start_s: f64,
    /// Phase end, seconds (exclusive).
    pub end_s: f64,
    /// Character.
    pub kind: PhaseKind,
    /// Requests inside the phase.
    pub requests: u64,
    /// Bytes moved inside the phase.
    pub bytes: u64,
}

impl Phase {
    /// Phase length in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Parameters of the segmentation.
#[derive(Debug, Clone, Copy)]
pub struct PhaseConfig {
    /// Bin width, seconds.
    pub bin_s: f64,
    /// Requests per bin at or below which a bin is `Quiet` (set this just
    /// above the daemon background for the bin width).
    pub quiet_requests: u64,
    /// Fraction of a bin's requests that must be 4 KB to call it `Paging`.
    pub paging_fraction: f64,
    /// Fraction of a bin's bytes in ≥8 KB reads to call it `StreamingRead`.
    pub stream_fraction: f64,
    /// Fraction of requests that must be writes to call it `WriteBurst`.
    pub write_fraction: f64,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        Self {
            bin_s: 5.0,
            quiet_requests: 6,
            paging_fraction: 0.5,
            stream_fraction: 0.4,
            write_fraction: 0.75,
        }
    }
}

/// Segment a (single-disk) trace covering `duration_s` seconds.
pub fn segment(records: &[TraceRecord], duration_s: f64, cfg: &PhaseConfig) -> Vec<Phase> {
    assert!(cfg.bin_s > 0.0);
    let nbins = (duration_s / cfg.bin_s).ceil().max(1.0) as usize;
    #[derive(Default, Clone, Copy)]
    struct Acc {
        requests: u64,
        bytes: u64,
        page4k: u64,
        stream_bytes: u64,
        writes: u64,
    }
    let mut bins = vec![Acc::default(); nbins];
    for r in records {
        let idx = ((r.secs() / cfg.bin_s) as usize).min(nbins - 1);
        let b = &mut bins[idx];
        b.requests += 1;
        b.bytes += r.bytes() as u64;
        if r.bytes() == 4096 {
            b.page4k += 1;
        }
        if r.op == Op::Read && r.bytes() >= 8 * 1024 {
            b.stream_bytes += r.bytes() as u64;
        }
        if r.op == Op::Write {
            b.writes += 1;
        }
    }
    let classify = |b: &Acc| -> PhaseKind {
        if b.requests <= cfg.quiet_requests {
            return PhaseKind::Quiet;
        }
        if b.stream_bytes as f64 >= cfg.stream_fraction * b.bytes as f64 {
            return PhaseKind::StreamingRead;
        }
        if b.page4k as f64 >= cfg.paging_fraction * b.requests as f64 {
            return PhaseKind::Paging;
        }
        if b.writes as f64 >= cfg.write_fraction * b.requests as f64 {
            return PhaseKind::WriteBurst;
        }
        PhaseKind::Busy
    };
    let mut phases: Vec<Phase> = Vec::new();
    for (i, b) in bins.iter().enumerate() {
        let kind = classify(b);
        let start_s = i as f64 * cfg.bin_s;
        match phases.last_mut() {
            Some(last) if last.kind == kind => {
                last.end_s = start_s + cfg.bin_s;
                last.requests += b.requests;
                last.bytes += b.bytes;
            }
            _ => phases.push(Phase {
                start_s,
                end_s: start_s + cfg.bin_s,
                kind,
                requests: b.requests,
                bytes: b.bytes,
            }),
        }
    }
    if let Some(last) = phases.last_mut() {
        last.end_s = last.end_s.min(duration_s.max(cfg.bin_s));
    }
    phases
}

/// The first phase of the given kind, if any.
pub fn first_of(phases: &[Phase], kind: PhaseKind) -> Option<&Phase> {
    phases.iter().find(|p| p.kind == kind)
}

/// The longest phase of the given kind, if any.
pub fn longest_of(phases: &[Phase], kind: PhaseKind) -> Option<&Phase> {
    phases
        .iter()
        .filter(|p| p.kind == kind)
        .max_by(|a, b| a.duration_s().partial_cmp(&b.duration_s()).expect("finite"))
}

/// One line per phase, the way the paper narrates a figure.
pub fn narrate(phases: &[Phase]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for p in phases {
        let _ = writeln!(
            s,
            "  {:>6.0}s..{:>6.0}s {:<14} {:>7} requests {:>10} bytes",
            p.start_s,
            p.end_s,
            p.kind.label(),
            p.requests,
            p.bytes
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Op, Origin, TraceRecord};

    fn rec(ts_s: f64, kib: u32, op: Op) -> TraceRecord {
        TraceRecord {
            ts: (ts_s * 1e6) as u64,
            sector: 100_000,
            nsectors: (kib * 2) as u16,
            pending: 0,
            node: 0,
            op,
            origin: Origin::Unknown,
        }
    }

    /// A synthetic wavelet-like biography: paging 0-20s, streaming reads
    /// 20-30s, quiet 30-60s, write burst 60-70s.
    fn wavelet_like() -> Vec<TraceRecord> {
        let mut t = Vec::new();
        for i in 0..60 {
            t.push(rec(
                i as f64 / 3.0,
                4,
                if i % 2 == 0 { Op::Read } else { Op::Write },
            ));
        }
        for i in 0..20 {
            t.push(rec(20.0 + i as f64 / 2.0, 16, Op::Read));
        }
        for i in 0..5 {
            t.push(rec(32.0 + i as f64 * 5.0, 1, Op::Write)); // background
        }
        for i in 0..40 {
            t.push(rec(60.0 + i as f64 / 4.0, 2, Op::Write));
        }
        t.sort_by_key(|r| r.ts);
        t
    }

    #[test]
    fn recovers_the_wavelet_narrative() {
        let phases = segment(
            &wavelet_like(),
            70.0,
            &PhaseConfig {
                quiet_requests: 2,
                ..Default::default()
            },
        );
        let paging = first_of(&phases, PhaseKind::Paging).expect("paging phase");
        assert!(paging.start_s < 5.0, "{paging:?}");
        let stream = first_of(&phases, PhaseKind::StreamingRead).expect("streaming phase");
        assert!((15.0..30.0).contains(&stream.start_s), "{stream:?}");
        let quiet = longest_of(&phases, PhaseKind::Quiet).expect("lull");
        assert!(quiet.duration_s() >= 20.0, "{quiet:?}");
        let burst = first_of(&phases, PhaseKind::WriteBurst).expect("write burst");
        assert!(burst.start_s >= 55.0, "{burst:?}");
    }

    #[test]
    fn phases_tile_the_timeline_without_overlap() {
        let phases = segment(&wavelet_like(), 70.0, &PhaseConfig::default());
        assert!((phases[0].start_s - 0.0).abs() < 1e-9);
        for w in phases.windows(2) {
            assert!(
                (w[0].end_s - w[1].start_s).abs() < 1e-9,
                "gap/overlap: {w:?}"
            );
            assert_ne!(w[0].kind, w[1].kind, "adjacent phases must differ");
        }
        let total: u64 = phases.iter().map(|p| p.requests).sum();
        assert_eq!(total, wavelet_like().len() as u64);
    }

    #[test]
    fn empty_trace_is_one_quiet_phase() {
        let phases = segment(&[], 100.0, &PhaseConfig::default());
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].kind, PhaseKind::Quiet);
        assert_eq!(phases[0].requests, 0);
    }

    #[test]
    fn narrate_is_one_line_per_phase() {
        let phases = segment(&wavelet_like(), 70.0, &PhaseConfig::default());
        let text = narrate(&phases);
        assert_eq!(text.lines().count(), phases.len());
        assert!(text.contains("paging"));
    }

    #[test]
    fn write_burst_requires_write_dominance() {
        // A mixed busy period is Busy, not WriteBurst.
        let mut t = Vec::new();
        for i in 0..40 {
            t.push(rec(
                i as f64 / 8.0,
                1,
                if i % 2 == 0 { Op::Read } else { Op::Write },
            ));
        }
        let phases = segment(&t, 5.0, &PhaseConfig::default());
        assert_eq!(phases[0].kind, PhaseKind::Busy);
    }
}
